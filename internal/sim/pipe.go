package sim

import "math"

// Pipe is a FIFO store-and-forward bandwidth server: a NIC direction, a
// PCIe link, a DRAM port. A transfer of B bytes occupies the server for
// B/rate seconds after all previously queued transfers have drained, where
// rate is min(Bandwidth, the requester's own cap). Latency is added once
// per transfer, pipelined (it delays completion but does not occupy the
// server), which matches how wire latency behaves on real links.
type Pipe struct {
	Bandwidth float64 // bytes per second
	Latency   float64 // seconds per transfer

	eng    *Engine
	free   float64 // time the server becomes free
	bytes  float64 // total bytes carried
	waited float64 // total seconds transfers queued behind earlier ones
}

// NewPipe returns a pipe on engine e with the given service bandwidth
// (bytes/second) and per-transfer latency (seconds).
func NewPipe(e *Engine, bandwidth, latency float64) *Pipe {
	return &Pipe{Bandwidth: bandwidth, Latency: latency, eng: e}
}

// TransferEvent books bytes onto the server, behind every transfer booked
// before it, and returns the completion time; it blocks nobody. rateCap
// is an additional per-requester bandwidth cap (e.g. the CPU port of a
// shared DRAM achieves less than the DRAM itself); 0 means none. A step
// waits for the transfer by resuming itself at the returned time.
func (pp *Pipe) TransferEvent(bytes, rateCap float64) float64 {
	e := pp.eng
	rate := pp.Bandwidth
	if rateCap > 0 && rateCap < rate {
		rate = rateCap
	}
	start := math.Max(e.now, pp.free)
	if start > e.now {
		pp.waited += start - e.now
	}
	dur := 0.0
	if bytes > 0 {
		dur = bytes / rate
	}
	pp.free = start + dur
	pp.bytes += bytes
	return pp.free + pp.Latency
}

// Bytes returns the total bytes carried so far.
func (pp *Pipe) Bytes() float64 { return pp.bytes }

// QueueWait returns the total seconds transfers have spent queued behind
// earlier transfers before starting service — the arbitration stall a
// shared DRAM port inflicts on its contenders.
func (pp *Pipe) QueueWait() float64 { return pp.waited }
