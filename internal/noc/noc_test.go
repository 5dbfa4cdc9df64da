package noc

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func newNet(t *testing.T, nodes int) (*sim.Engine, *Network) {
	t.Helper()
	e := sim.NewEngine()
	return e, New(e, DefaultConfig(nodes))
}

func TestHops(t *testing.T) {
	_, n := newNet(t, 16) // 4x4 mesh
	cases := []struct{ src, dst, want int }{
		{0, 0, 0},
		{0, 1, 1},
		{0, 3, 3},
		{0, 4, 1},  // one row down
		{0, 5, 2},  // diagonal neighbor
		{0, 15, 6}, // opposite corner: 3+3
		{15, 0, 6},
	}
	for _, c := range cases {
		if got := n.Hops(c.src, c.dst); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

func TestLatencyGrowsWithDistance(t *testing.T) {
	_, n := newNet(t, 64)
	near := n.Latency(0, 1, 64)
	far := n.Latency(0, 63, 64)
	if near >= far {
		t.Fatalf("latency near=%d far=%d; want near < far", near, far)
	}
}

func TestLatencyGrowsWithSize(t *testing.T) {
	_, n := newNet(t, 16)
	small := n.Latency(0, 5, 16)
	big := n.Latency(0, 5, 4096)
	if small >= big {
		t.Fatalf("latency small=%d big=%d; want small < big", small, big)
	}
}

func TestDeliveryTime(t *testing.T) {
	e, n := newNet(t, 16)
	var arrived sim.Time
	n.Send(0, 15, 64, func() { arrived = e.Now() })
	e.Run()
	if want := n.Latency(0, 15, 64); arrived != want {
		t.Fatalf("arrived at %d, want %d", arrived, want)
	}
}

func TestPairFIFOWithMixedSizes(t *testing.T) {
	// A huge message sent first must not be overtaken by a tiny one sent
	// immediately after, even though the tiny one has lower model latency.
	e, n := newNet(t, 16)
	var order []int
	n.Send(0, 15, 1<<20, func() { order = append(order, 1) })
	n.Send(0, 15, 1, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("delivery order %v, want [1 2]", order)
	}
}

func TestDifferentPairsMayOvertake(t *testing.T) {
	// FIFO is per pair: a message on a different pair may overtake.
	e, n := newNet(t, 16)
	var order []int
	n.Send(0, 15, 1<<20, func() { order = append(order, 1) })
	n.Send(1, 2, 1, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 2 || order[0] != 2 {
		t.Fatalf("delivery order %v, want short message first", order)
	}
}

func TestStats(t *testing.T) {
	e, n := newNet(t, 16)
	n.Send(0, 15, 100, func() {})
	n.Send(3, 7, 50, func() {})
	e.Run()
	s := n.Stats()
	if s.Messages != 2 {
		t.Errorf("messages = %d, want 2", s.Messages)
	}
	if s.Bytes != 150 {
		t.Errorf("bytes = %d, want 150", s.Bytes)
	}
	if s.HopsSum == 0 {
		t.Error("hops sum = 0")
	}
}

func TestSelfSend(t *testing.T) {
	e, n := newNet(t, 4)
	done := false
	n.Send(2, 2, 32, func() { done = true })
	e.Run()
	if !done {
		t.Fatal("self-send not delivered")
	}
}

func TestInvalidNodePanics(t *testing.T) {
	e, n := newNet(t, 4)
	_ = e
	defer func() {
		if recover() == nil {
			t.Error("out-of-range node did not panic")
		}
	}()
	n.Send(0, 99, 1, func() {})
}

// Property: delivery never precedes the uncontended model latency and
// per-pair order is preserved, for random message sequences.
func TestDeliveryProperties(t *testing.T) {
	f := func(sizes []uint16, gap uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		e := sim.NewEngine()
		n := New(e, DefaultConfig(9))
		type rec struct {
			idx  int
			sent sim.Time
			at   sim.Time
			min  sim.Duration
		}
		var recs []rec
		for i, sz := range sizes {
			i, sz := i, int(sz)
			e.Schedule(sim.Duration(i)*sim.Duration(gap), func() {
				sent := e.Now()
				min := n.Latency(0, 8, sz)
				n.Send(0, 8, sz, func() {
					recs = append(recs, rec{i, sent, e.Now(), min})
				})
			})
		}
		e.Run()
		if len(recs) != len(sizes) {
			return false
		}
		for i, r := range recs {
			if r.idx != i { // FIFO per pair
				return false
			}
			if r.at < r.sent+r.min { // causality + model floor
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// scriptedInjector returns a fixed verdict per Send, in call order.
type scriptedInjector struct {
	verdicts []Verdict
	calls    int
}

func (s *scriptedInjector) Inspect(now sim.Time, src, dst, size int) Verdict {
	v := Verdict{}
	if s.calls < len(s.verdicts) {
		v = s.verdicts[s.calls]
	}
	s.calls++
	return v
}

// TestInjectorDrop: a dropped message never delivers, counts as lost, and
// still advances the pair's FIFO horizon (the wire consumed it).
func TestInjectorDrop(t *testing.T) {
	e, n := newNet(t, 4)
	inj := &scriptedInjector{verdicts: []Verdict{{Drop: true}, {}}}
	n.SetInjector(inj)
	var got []int
	n.Send(0, 1, 64, func() { got = append(got, 1) })
	n.Send(0, 1, 64, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("deliveries = %v, want [2]", got)
	}
	if n.Stats().Lost != 1 {
		t.Fatalf("Lost = %d, want 1", n.Stats().Lost)
	}
	if inj.calls != 2 {
		t.Fatalf("injector consulted %d times, want 2", inj.calls)
	}
}

// TestInjectorDup: a duplicated message delivers exactly twice, the copy
// strictly after the original, and later sends on the pair stay FIFO
// behind the copy.
func TestInjectorDup(t *testing.T) {
	e, n := newNet(t, 4)
	n.SetInjector(&scriptedInjector{verdicts: []Verdict{{Dup: true}, {}}})
	var got []int
	var times []sim.Time
	n.Send(0, 1, 64, func() { got = append(got, 1); times = append(times, e.Now()) })
	n.Send(0, 1, 64, func() { got = append(got, 2); times = append(times, e.Now()) })
	e.Run()
	want := []int{1, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("deliveries = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("deliveries = %v, want %v", got, want)
		}
	}
	if !(times[0] < times[1] && times[1] <= times[2]) {
		t.Fatalf("delivery times %v violate original < copy <= next", times)
	}
}

// TestSendReportsScheduledDeliveries: Send returns how many times deliver
// will run — 0 for a dropped message, 2 for a duplicated one, 1 otherwise
// (with or without an injector) — and deliver then runs exactly that often.
func TestSendReportsScheduledDeliveries(t *testing.T) {
	e, n := newNet(t, 4)
	ran := 0
	deliver := func() { ran++ }
	if got := n.Send(0, 1, 64, deliver); got != 1 {
		t.Fatalf("lossless Send = %d, want 1", got)
	}
	n.SetInjector(&scriptedInjector{verdicts: []Verdict{{Drop: true}, {}, {Dup: true}, {Delay: 5}}})
	for i, want := range []int{0, 1, 2, 1} {
		if got := n.Send(0, 1, 64, deliver); got != want {
			t.Fatalf("Send %d under the injector = %d, want %d", i, got, want)
		}
	}
	e.Run()
	if ran != 1+0+1+2+1 {
		t.Fatalf("deliver ran %d times, want 5", ran)
	}
}

// TestInjectorDelay: injected delay shifts arrival and pushes the FIFO
// horizon so an undelayed follower cannot overtake.
func TestInjectorDelay(t *testing.T) {
	e, n := newNet(t, 4)
	base := n.Latency(0, 1, 64)
	n.SetInjector(&scriptedInjector{verdicts: []Verdict{{Delay: 500}, {}}})
	var first, second sim.Time
	n.Send(0, 1, 64, func() { first = e.Now() })
	n.Send(0, 1, 64, func() { second = e.Now() })
	e.Run()
	if first != sim.Time(base)+500 {
		t.Fatalf("delayed arrival at %d, want %d", first, sim.Time(base)+500)
	}
	if second < first {
		t.Fatalf("follower overtook the delayed message: %d < %d", second, first)
	}
}

// TestInjectorNilRestoresLossless: clearing the injector restores plain
// delivery.
func TestInjectorNilRestoresLossless(t *testing.T) {
	e, n := newNet(t, 4)
	n.SetInjector(&scriptedInjector{verdicts: []Verdict{{Drop: true}}})
	n.SetInjector(nil)
	delivered := false
	n.Send(0, 1, 64, func() { delivered = true })
	e.Run()
	if !delivered {
		t.Fatal("message lost after the injector was cleared")
	}
	if n.Stats().Lost != 0 {
		t.Fatalf("Lost = %d, want 0", n.Stats().Lost)
	}
}

type pairKey struct{ src, dst int }

// pairInjector draws every verdict from (src, dst, per-pair counter) only —
// like internal/fault — so the verdict a message gets does not depend on how
// sends of different pairs interleave.
type pairInjector struct{ count map[pairKey]uint64 }

func (p *pairInjector) Inspect(now sim.Time, src, dst, size int) Verdict {
	k := pairKey{src, dst}
	p.count[k]++
	h := (uint64(src)*31+uint64(dst))*1_000_003 + p.count[k]*2_654_435_761
	h ^= h >> 13
	return Verdict{Drop: h%8 == 0, Dup: h%8 == 1, Delay: sim.Duration(h % 5 * 10)}
}

type delivery struct {
	id int
	at sim.Time
}

// runScript drives one seeded message script — mixed sizes, self-sends,
// replies sent from delivery events, an injector that drops, duplicates and
// delays, receiver-side CountLost — through a 9-node network and returns the
// deliveries per (src, dst) pair and the final Stats.
func runScript(t *testing.T) (map[pairKey][]delivery, Stats) {
	t.Helper()
	const nodes = 9
	e, n := newNet(t, nodes)
	n.SetInjector(&pairInjector{count: map[pairKey]uint64{}})
	got := map[pairKey][]delivery{}
	var send func(id, src, dst, size int)
	send = func(id, src, dst, size int) {
		n.Send(src, dst, size, func() {
			k := pairKey{src, dst}
			got[k] = append(got[k], delivery{id, e.Now()})
			switch {
			case id%7 == 0:
				n.CountLost() // receiver had no free slot
			case id%3 == 0 && id < 1_000_000:
				send(id+1_000_000, dst, src, 32) // reply from the delivery event
			}
		})
	}
	rng := rand.New(rand.NewSource(7))
	for id := 1; id <= 400; id++ {
		id, src, dst := id, rng.Intn(nodes), rng.Intn(nodes)
		size := []int{8, 64, 300, 4096}[rng.Intn(4)]
		e.At(sim.Time(1+rng.Intn(600)), func() { send(id, src, dst, size) })
	}
	e.Run()
	return got, n.Stats()
}

// TestInjectedScriptKeepsPairFIFO: under an injector that drops, duplicates
// and delays, with replies sent from delivery events, every pair's deliveries
// stay in time order, a duplicate trails its original, and a second run of the
// script delivers the same messages at the same times with the same Stats.
func TestInjectedScriptKeepsPairFIFO(t *testing.T) {
	want, wantStats := runScript(t)
	got, gotStats := runScript(t)
	if gotStats != wantStats || !reflect.DeepEqual(got, want) {
		t.Fatalf("two runs of one script differ: stats %+v vs %+v", gotStats, wantStats)
	}
	// The script must have exercised what it claims to.
	var self, dups, replies int
	for k, ds := range want {
		for i, d := range ds {
			if i > 0 && d.at < ds[i-1].at {
				t.Errorf("pair %d->%d: delivery %d at %d before its predecessor at %d", k.src, k.dst, d.id, d.at, ds[i-1].at)
			}
			if i > 0 && d.id == ds[i-1].id {
				dups++
			}
			if d.id > 1_000_000 {
				replies++
			}
		}
		if k.src == k.dst {
			self += len(ds)
		}
	}
	if self == 0 || dups == 0 || replies == 0 || wantStats.Lost == 0 {
		t.Fatalf("script too tame: self=%d dups=%d replies=%d lost=%d", self, dups, replies, wantStats.Lost)
	}
}
