// Package noc models the network-on-chip that connects all processing
// elements (PEs) of the simulated machine.
//
// The model is a 2D mesh with dimension-ordered (XY) routing. Message
// latency is base + hops*(router+hop) + serialization, where serialization
// grows with the message size. Links have infinite bandwidth: latency
// depends only on distance and size, the paper's assumption of a
// non-contended interconnect for the capability experiments (§5.1), and the
// only regime the model has.
//
// The network guarantees per-(src,dst) FIFO ordering, a stated precondition of the SemperOS distributed capability
// protocols ("if kernel K1 first sends a message M1 to kernel K2, followed
// by a message M2, then K2 has to receive M1 before M2").
package noc

import (
	"fmt"

	"repro/internal/sim"
)

// Config describes the mesh.
type Config struct {
	// Nodes is the number of attached PEs. Required.
	Nodes int
}

// DefaultConfig returns the configuration of a mesh of nodes PEs.
func DefaultConfig(nodes int) Config { return Config{Nodes: nodes} }

// Timing of the mesh, in cycles: a lightweight mesh calibrated against the
// paper's microbenchmark magnitudes (a few hundred cycles per kernel round
// trip). The mesh is near-square.
const (
	baseLatency   sim.Duration = 24 // once per message (injection + ejection)
	hopLatency    sim.Duration = 2  // wire latency per hop
	routerLatency sim.Duration = 3  // router pipeline latency per hop
	flitBytes                  = 16 // payload carried per flit
	flitLatency   sim.Duration = 1  // serialization cost per flit
)

// Stats aggregates network activity counters.
type Stats struct {
	Messages uint64
	Bytes    uint64
	HopsSum  uint64
	Lost     uint64 // messages dropped by a receiver (no free slot) or by fault injection
}

// pairID packs an ordered node pair into one word. Send looks its pair up
// and stores it on every message; a one-word key takes the runtime's 64-bit
// map paths, which a two-int struct key (hashed as 16 bytes of memory) does
// not.
func pairID(src, dst int) uint64 { return uint64(src)<<32 | uint64(dst) }

// Verdict is a fault injector's decision about one message: drop it,
// deliver it twice, and/or delay its arrival by Delay cycles. The zero
// Verdict delivers normally.
type Verdict struct {
	Drop  bool
	Dup   bool
	Delay sim.Duration
}

// Injector inspects every message at send time and returns its fate.
// Implementations (see internal/fault) must be deterministic functions of
// their own state and the arguments: the network calls Inspect exactly
// once per Send, in event order.
type Injector interface {
	Inspect(now sim.Time, src, dst, size int) Verdict
}

// Network is the mesh instance. It is bound to a sim.Engine and delivers
// messages by scheduling events.
type Network struct {
	eng   *sim.Engine
	cfg   Config
	width int
	// lastDeliver enforces per-pair FIFO ordering.
	lastDeliver map[uint64]sim.Time
	stats       Stats
	// inj, when set, decides per message whether to drop, duplicate or
	// delay it (fault injection). Nil means the lossless fabric.
	inj Injector
}

// New creates a mesh network for cfg.Nodes PEs.
func New(eng *sim.Engine, cfg Config) *Network {
	if cfg.Nodes <= 0 {
		panic("noc: Config.Nodes must be positive")
	}
	w := 1
	for w*w < cfg.Nodes {
		w++
	}
	return &Network{
		eng:         eng,
		cfg:         cfg,
		width:       w,
		lastDeliver: make(map[uint64]sim.Time),
	}
}

// Nodes returns the number of attached PEs.
func (n *Network) Nodes() int { return n.cfg.Nodes }

// Stats returns a snapshot of the activity counters.
func (n *Network) Stats() Stats { return n.stats }

// CountLost increments the lost-message counter; receivers (DTUs) call it
// from the delivery event when a message arrives and no slot is free.
func (n *Network) CountLost() { n.stats.Lost++ }

func (n *Network) coord(node int) (x, y int) {
	return node % n.width, node / n.width
}

// Hops returns the XY-routed hop count between two PEs.
func (n *Network) Hops(src, dst int) int {
	sx, sy := n.coord(src)
	dx, dy := n.coord(dst)
	return abs(sx-dx) + abs(sy-dy)
}

// SetInjector attaches a fault injector consulted once per Send. Passing
// nil restores the lossless fabric.
func (n *Network) SetInjector(inj Injector) { n.inj = inj }

// Latency returns the latency of a message of the given size.
func (n *Network) Latency(src, dst, size int) sim.Duration {
	hops := sim.Duration(n.Hops(src, dst))
	flits := sim.Duration((size + flitBytes - 1) / flitBytes)
	if flits == 0 {
		flits = 1
	}
	return baseLatency + hops*(hopLatency+routerLatency) + flits*flitLatency
}

// Send transmits a message of size bytes from src to dst and invokes deliver
// at the destination when it arrives. Delivery preserves per-(src,dst) FIFO
// order. Send may be called from event handlers and procs of the sending
// node.
//
// With an injector attached, a message may be dropped (deliver is never
// invoked), duplicated (deliver is invoked twice, the copy strictly after
// the original) or delayed. All outcomes keep per-pair FIFO: a delayed or
// duplicated message pushes the pair's delivery horizon forward, and a
// dropped one still advances it to where it would have arrived — the wire
// consumed the message even though nobody receives it.
//
// Send returns how many deliveries it scheduled — 0 dropped, 1, 2
// duplicated — so a sender whose deliver belongs to a recycled object (see
// dtu.Message) knows when the object is no longer referenced by the wire.
func (n *Network) Send(src, dst, size int, deliver func()) int {
	n.checkNode(src)
	n.checkNode(dst)
	n.stats.Messages++
	n.stats.Bytes += uint64(size)
	n.stats.HopsSum += uint64(n.Hops(src, dst))

	now := n.eng.Now()
	var v Verdict
	if n.inj != nil {
		v = n.inj.Inspect(now, src, dst, size)
	}
	arrival := now + n.Latency(src, dst, size) + v.Delay
	key := pairID(src, dst)
	if last, ok := n.lastDeliver[key]; ok && arrival < last {
		arrival = last
	}
	n.lastDeliver[key] = arrival
	if v.Drop {
		n.stats.Lost++
		return 0
	}
	n.eng.Schedule(arrival-now, deliver)
	if !v.Dup {
		return 1
	}
	// The duplicate trails the original by one flit time so the
	// receiver observes two distinct delivery events in a fixed order.
	dupAt := arrival + flitLatency
	n.lastDeliver[key] = dupAt
	n.eng.Schedule(dupAt-now, deliver)
	return 2
}

func (n *Network) checkNode(id int) {
	if id < 0 || id >= n.cfg.Nodes {
		panic(fmt.Sprintf("noc: node %d out of range [0,%d)", id, n.cfg.Nodes))
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
