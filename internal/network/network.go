// Package network models the cluster interconnect: per-node NICs, a
// switch, and the intra-node memory path used when two ranks share a node.
//
// The model is a crossbar: a message occupies its source TX port and its
// destination RX port simultaneously for bytes/throughput seconds (so
// fan-out serializes at the sender and incast serializes at the receiver),
// and one-way wire latency is added on top, pipelined. This reproduces the
// iperf throughput and ping-pong latency numbers the paper measured while
// letting congestion emerge from port queueing.
package network

import (
	"fmt"
	"math"

	"clustersoc/internal/obs"
	"clustersoc/internal/sim"
	"clustersoc/internal/units"
)

// Profile describes one NIC option for the cluster.
type Profile struct {
	Name        string
	Throughput  float64 // effective bytes/second per direction (as iperf measures)
	Latency     float64 // one-way latency in seconds (half the ping-pong RTT)
	PowerWatts  float64 // extra power drawn per node by this NIC
	SwitchWatts float64 // power of the switch serving the cluster
}

// The two network options the paper evaluates. The on-board 1 GbE achieves
// 0.94 Gb/s effective; the Startech 10 GbE card is bound by the TX1's
// PCIe x1 gen2 slot and achieves 3.3 Gb/s, costing ~5 W per node.
// Ping-pong RTTs: 200 us (1 GbE) and 50 us (10 GbE).
var (
	GigE = Profile{
		Name:        "1GbE",
		Throughput:  0.94 * units.Gbps,
		Latency:     100 * units.Microsecond,
		PowerWatts:  0,
		SwitchWatts: 8, // unmanaged Netgear 1 GbE switch
	}
	TenGigE = Profile{
		Name:        "10GbE",
		Throughput:  3.3 * units.Gbps,
		Latency:     25 * units.Microsecond,
		PowerWatts:  5,
		SwitchWatts: 25, // managed 10 GbE switch, amortized over its ports
	}
	// Ideal is the zero-latency, effectively-infinite-bandwidth network used
	// by the DIMEMAS-style ideal-network replay scenario.
	Ideal = Profile{Name: "ideal", Throughput: 1e15, Latency: 0, PowerWatts: 0}
)

// port is one direction of a NIC: a FIFO bandwidth server.
type port struct {
	free      float64
	bytes     float64
	busy      float64
	queuedMax float64     // high-water mark of bytes queued behind the port (instrumented runs only)
	pending   []queuedMsg // bookings not yet in service, pruned lazily (instrumented runs only)
}

// queuedMsg is one booking that had to wait behind the port: it enters
// service at start and counts as backlog until then.
type queuedMsg struct {
	start float64
	bytes float64
}

// FlapSource lazily generates a link's down windows. Next returns the
// next window [start, end); successive windows must not overlap and must
// be non-decreasing in time. start == +Inf means no further flaps.
// Pull-based generation keeps the fault plane termination-safe: windows
// materialize only as traffic reaches them, so an idle link never keeps
// the calendar alive.
type FlapSource interface {
	Next() (start, end float64)
}

// window is one half-open interval during which a link cannot begin
// service (a flap or a crash outage).
type window struct {
	from, to float64
}

// linkFault is the per-node fault state of one NIC (both directions and
// the intra-node path share the node's fate). Allocated only when the
// fault plane injects something, so a fault-free network pays one nil
// check per Deliver.
type linkFault struct {
	derate float64 // throughput multiplier; 0 means unset (healthy)
	flaps  FlapSource

	winFrom, winTo float64    // current flap window; winTo == 0 until first pull
	done           bool       // flap source exhausted
	restore        *sim.Timer // pending flap-restoration timer
	down           bool       // inside a flap the traffic has entered

	forced []window // crash outages, appended in simulation-time order

	flapDelays       uint64  // bookings pushed past a down window
	flapDelaySeconds float64 // total service-start delay those bookings paid
	flapsCancelled   uint64  // flap restorations superseded by a crash
}

// Network is the interconnect for a set of nodes.
type Network struct {
	eng     *sim.Engine
	prof    Profile
	tx, rx  []port
	loop    []port // intra-node memory path, one per node
	memBW   float64
	memLat  float64
	fabric  float64 // total bytes through the switch, for statistics
	packets uint64

	// sizeHist, when attached via Instrument, observes every message's
	// size. It doubles as the instrumentation switch: the queued-bytes
	// high-water tracking keys off the same nil check, so an
	// uninstrumented Deliver pays exactly one comparison.
	sizeHist *obs.Histogram

	// lf, when non-nil, is the per-node link-fault state installed by the
	// fault-injection plane (internal/faults). A fault-free network keeps
	// it nil, so Deliver pays exactly one comparison.
	lf []linkFault

	// obsD, when non-nil, sees every booking's internal decomposition
	// (service start vs. call time separates queueing from wire time).
	// internal/critpath attaches it; an unobserved Deliver pays one nil
	// check.
	obsD DeliveryObserver
}

// DeliveryObserver sees every Deliver booking with its internal timing:
// post is the call (or floor) time, start the moment the message enters
// service, free when the sender's port drains, arrival when the last byte
// reaches the receiver. src == dst identifies the intra-node memory path.
type DeliveryObserver interface {
	ObserveDelivery(src, dst int, bytes, post, start, free, arrival float64)
}

// MemoryPathBandwidth is the effective bandwidth of rank-to-rank transfers
// through shared memory on one node (a memcpy: read + write through DRAM).
const MemoryPathBandwidth = 5 * units.GBps

// MemoryPathLatency is the software latency of an intra-node message.
const MemoryPathLatency = 1 * units.Microsecond

// New creates a network connecting nodes through prof.
func New(e *sim.Engine, nodes int, prof Profile) *Network {
	return &Network{
		eng:    e,
		prof:   prof,
		tx:     make([]port, nodes),
		rx:     make([]port, nodes),
		loop:   make([]port, nodes),
		memBW:  MemoryPathBandwidth,
		memLat: MemoryPathLatency,
	}
}

// Profile returns the NIC profile in use.
func (nw *Network) Profile() Profile { return nw.prof }

// Nodes returns the number of attached nodes.
func (nw *Network) Nodes() int { return len(nw.tx) }

// Deliver books a message of the given size from node src to node dst and
// returns (senderFree, arrival): the time the sender's buffer has drained
// and the time the last byte reaches the receiver. Deliver does not block;
// the MPI layer schedules around the returned times.
func (nw *Network) Deliver(src, dst int, bytes float64) (senderFree, arrival float64) {
	return nw.deliver(src, dst, bytes, nw.eng.Now())
}

// DeliverAfter is Deliver with a floor on the service start: the booking
// cannot enter service before `earliest`. The MPI layer uses it for the
// eager-retransmit copy of a lost message, which leaves the NIC only
// after the retransmit timeout has elapsed.
func (nw *Network) DeliverAfter(src, dst int, bytes, earliest float64) (senderFree, arrival float64) {
	return nw.deliver(src, dst, bytes, math.Max(earliest, nw.eng.Now()))
}

func (nw *Network) deliver(src, dst int, bytes, floor float64) (senderFree, arrival float64) {
	if src < 0 || src >= len(nw.tx) || dst < 0 || dst >= len(nw.rx) {
		panic(fmt.Sprintf("network: node out of range: %d -> %d (have %d)", src, dst, len(nw.tx)))
	}
	now := nw.eng.Now()
	nw.packets++
	if src == dst {
		lp := &nw.loop[src]
		start := math.Max(floor, lp.free)
		if nw.lf != nil {
			// Iterate to a fixpoint, exactly like the wire path's admit():
			// escaping a flap window can land the start inside a later
			// crash-outage window (or vice versa), and a single admitOne
			// pass does not re-check earlier window kinds after a move.
			for {
				next := nw.admitOne(src, start)
				if next == start {
					break
				}
				start = next
			}
		}
		svc := bytes / nw.memBW
		lp.free = start + svc
		lp.bytes += bytes
		lp.busy += svc
		if nw.sizeHist != nil {
			nw.sizeHist.Observe(bytes)
			lp.markQueued(now, start, bytes)
		}
		if nw.obsD != nil {
			nw.obsD.ObserveDelivery(src, dst, bytes, now, start, lp.free, lp.free+nw.memLat)
		}
		return lp.free, lp.free + nw.memLat
	}
	t, r := &nw.tx[src], &nw.rx[dst]
	start := math.Max(floor, math.Max(t.free, r.free))
	rate := nw.prof.Throughput
	if nw.lf != nil {
		start = nw.admit(src, dst, start)
		rate *= math.Min(nw.derate(src), nw.derate(dst))
	}
	svc := bytes / rate
	t.free = start + svc
	r.free = start + svc
	t.bytes += bytes
	r.bytes += bytes
	t.busy += svc
	r.busy += svc
	nw.fabric += bytes
	if nw.sizeHist != nil {
		nw.sizeHist.Observe(bytes)
		t.markQueued(now, start, bytes)
		r.markQueued(now, start, bytes)
	}
	if nw.obsD != nil {
		nw.obsD.ObserveDelivery(src, dst, bytes, now, start, t.free, t.free+nw.prof.Latency)
	}
	return t.free, t.free + nw.prof.Latency
}

// derate returns the node link's effective throughput multiplier.
func (nw *Network) derate(node int) float64 {
	if d := nw.lf[node].derate; d > 0 {
		return d
	}
	return 1
}

// admit pushes a service start past any down windows (flaps, crash
// outages) of both endpoints, iterating to a fixpoint: escaping one
// node's window can land inside the other's. The loop terminates because
// each pass only moves the start forward through a finite set of
// materialized windows.
func (nw *Network) admit(src, dst int, start float64) float64 {
	for {
		next := nw.admitOne(dst, nw.admitOne(src, start))
		if next == start {
			return start
		}
		start = next
	}
}

// admitOne pushes a service start past one node's down windows. Entering
// a flap window for the first time arms that window's restoration timer;
// a later crash on the node cancels it (ForceDown).
func (nw *Network) admitOne(node int, start float64) float64 {
	f := &nw.lf[node]
	for _, w := range f.forced {
		if start >= w.from && start < w.to {
			f.flapDelays++
			f.flapDelaySeconds += w.to - start
			start = w.to
		}
	}
	if f.flaps == nil {
		return start
	}
	// Pull windows until the current one ends after start.
	for !f.done && f.winTo <= start {
		from, to := f.flaps.Next()
		if math.IsInf(from, 1) {
			f.done = true
			break
		}
		f.winFrom, f.winTo = from, to
	}
	if !f.done && start >= f.winFrom && start < f.winTo {
		f.flapDelays++
		f.flapDelaySeconds += f.winTo - start
		if !f.down {
			f.down = true
			end := f.winTo
			f.restore = nw.eng.AfterAt(end, func() {
				f.down = false
				f.restore = nil
			})
		}
		start = f.winTo
	}
	return start
}

// markQueued updates the port's queued-bytes high-water mark right after
// a booking that enters service at start. Backlog counts only bookings
// still waiting for the port — the message currently in service (and
// everything already drained) is not queued, so a booking on an idle
// port records zero.
func (p *port) markQueued(now, start, bytes float64) {
	live, queued := p.pending[:0], 0.0
	for _, m := range p.pending {
		if m.start > now {
			live = append(live, m)
			queued += m.bytes
		}
	}
	p.pending = live
	if start > now {
		p.pending = append(p.pending, queuedMsg{start: start, bytes: bytes})
		queued += bytes
	}
	if queued > p.queuedMax {
		p.queuedMax = queued
	}
}

// InjectLinkFaults installs the fault plane's state for one node's link:
// a throughput derate (0 or 1 = healthy) and an optional lazy flap
// source. Must be called before traffic flows. Injecting a fully healthy
// state (derate 1, nil flaps) still allocates the fault table, so the
// fault plane only calls it for links a plan actually degrades.
func (nw *Network) InjectLinkFaults(node int, derate float64, flaps FlapSource) {
	nw.ensureLF()
	nw.lf[node].derate = derate
	nw.lf[node].flaps = flaps
}

// ForceDown takes a node's link down for [from, to) — the fault plane's
// crash outage. A pending flap restoration on the node is cancelled: the
// NIC reset on reboot supersedes the flap recovery, and the outage window
// governs admission until the restart completes.
func (nw *Network) ForceDown(node int, from, to float64) {
	nw.ensureLF()
	f := &nw.lf[node]
	f.forced = append(f.forced, window{from: from, to: to})
	if f.restore != nil && f.restore.Stop() {
		f.flapsCancelled++
		f.restore = nil
		f.down = false
	}
}

func (nw *Network) ensureLF() {
	if nw.lf == nil {
		nw.lf = make([]linkFault, len(nw.tx))
	}
}

// FlapDelays returns the fault plane's link-delay accounting summed over
// all nodes: how many bookings were pushed past a down window (flap or
// crash outage), the total service-start delay they paid, and how many
// flap restorations were cancelled by a crash.
func (nw *Network) FlapDelays() (delays uint64, seconds float64, cancelled uint64) {
	for i := range nw.lf {
		delays += nw.lf[i].flapDelays
		seconds += nw.lf[i].flapDelaySeconds
		cancelled += nw.lf[i].flapsCancelled
	}
	return delays, seconds, cancelled
}

// BytesSent returns the total bytes node has transmitted over the wire
// (intra-node traffic excluded).
func (nw *Network) BytesSent(node int) float64 { return nw.tx[node].bytes }

// BytesReceived returns the total bytes node has received over the wire.
func (nw *Network) BytesReceived(node int) float64 { return nw.rx[node].bytes }

// FabricBytes returns the total bytes that crossed the switch.
func (nw *Network) FabricBytes() float64 { return nw.fabric }

// IntraNodeBytes returns bytes moved through node's shared-memory path.
func (nw *Network) IntraNodeBytes(node int) float64 { return nw.loop[node].bytes }

// Messages returns the number of Deliver calls (wire and intra-node).
func (nw *Network) Messages() uint64 { return nw.packets }

// TXBusy returns the accumulated busy seconds of a node's TX port.
func (nw *Network) TXBusy(node int) float64 { return nw.tx[node].busy }

// RXBusy returns the accumulated busy seconds of a node's RX port.
func (nw *Network) RXBusy(node int) float64 { return nw.rx[node].busy }

// LoopBusy returns the accumulated busy seconds of a node's intra-node
// shared-memory path.
func (nw *Network) LoopBusy(node int) float64 { return nw.loop[node].busy }

// Instrument attaches live observability to the network: every Deliver
// observes the message size and updates per-port queued-bytes high-water
// marks. Nil-safe — Instrument(nil) leaves the network uninstrumented,
// and the uninstrumented Deliver path pays a single nil check.
func (nw *Network) Instrument(s *obs.Scope) {
	if s == nil {
		return
	}
	nw.sizeHist = s.Histogram("message_size_bytes", obs.MessageSizeBuckets)
}

// SetDeliveryObserver attaches a booking observer (nil to detach). Must be
// installed before traffic flows so the observer sees every message.
func (nw *Network) SetDeliveryObserver(o DeliveryObserver) { nw.obsD = o }

// PublishMetrics exports the interconnect's accounting into a scope:
// switch totals plus, per port, busy seconds, carried bytes, and (on
// instrumented runs) the queued-bytes high-water mark. Ports publish in
// index order, so the snapshot is deterministic.
func (nw *Network) PublishMetrics(s *obs.Scope) {
	if s == nil {
		return
	}
	s.Counter("fabric_bytes").Add(nw.fabric)
	s.Counter("messages").Add(float64(nw.packets))
	for i := range nw.tx {
		ps := s.Scope(fmt.Sprintf("port%d", i))
		ps.Counter("tx_busy_s").Add(nw.tx[i].busy)
		ps.Counter("rx_busy_s").Add(nw.rx[i].busy)
		ps.Counter("tx_bytes").Add(nw.tx[i].bytes)
		ps.Counter("rx_bytes").Add(nw.rx[i].bytes)
		ps.Counter("loop_bytes").Add(nw.loop[i].bytes)
		ps.Gauge("tx_queued_bytes_hw").SetMax(nw.tx[i].queuedMax)
		ps.Gauge("rx_queued_bytes_hw").SetMax(nw.rx[i].queuedMax)
	}
}
