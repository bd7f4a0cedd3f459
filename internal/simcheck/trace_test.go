package simcheck_test

import (
	"strings"
	"testing"

	"clustersoc/internal/network"
	"clustersoc/internal/runner"
	"clustersoc/internal/simcheck"
	"clustersoc/internal/trace"
)

// A trace recorded from a real run audits clean.
func TestAuditTraceFromRealRun(t *testing.T) {
	s := scenario("cg", 4, network.TenGigE)
	s.Cluster.Traced = true
	res, err := runner.Execute(s, runner.Observers{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("traced run produced no trace")
	}
	if vs := simcheck.AuditTrace(res.Trace); len(vs) != 0 {
		for _, v := range vs {
			t.Error(v)
		}
	}
}

func handTrace() *trace.Trace {
	tr := trace.New([]int{0, 1})
	tr.RecordCompute(0, 1.0, 0)
	tr.RecordSend(0, 1, 5, 1000, 1.0, 1.2)
	tr.RecordRecv(1, 0, 5, 0, 1.3)
	tr.RecordCompute(1, 0.5, 1.3)
	tr.Finish(2.0)
	return &tr.T
}

func TestAuditTraceCleanHandTrace(t *testing.T) {
	if vs := simcheck.AuditTrace(handTrace()); len(vs) != 0 {
		t.Fatalf("clean trace audited dirty: %v", vs)
	}
}

func TestAuditTraceFlagsUnmatchedSend(t *testing.T) {
	tr := handTrace()
	tr.Ranks[1].Ops = tr.Ranks[1].Ops[1:] // drop the receive
	err := simcheck.Error(simcheck.AuditTrace(tr))
	if err == nil || !strings.Contains(err.Error(), "1 send(s) to rank 1 with tag 5 but 0 receive(s)") {
		t.Fatalf("unmatched send not reported: %v", err)
	}
}

func TestAuditTraceFlagsTimingCorruption(t *testing.T) {
	tr := handTrace()
	tr.Ranks[0].Ops[1].End = 0.5 // send ends before it starts
	tr.Ranks[1].Ops[1].Start = -1
	tr.Runtime = 1.0 // now rank 1's recv ends past the runtime
	vs := simcheck.AuditTrace(tr)
	rules := map[string]bool{}
	for _, v := range vs {
		rules[v.Rule] = true
	}
	for _, want := range []string{"trace-timing", "trace-ordering"} {
		if !rules[want] {
			t.Errorf("corrupted trace missing a %s violation: %v", want, vs)
		}
	}
}
