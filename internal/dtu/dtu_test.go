package dtu

import (
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/noc"
	"repro/internal/sim"
)

func newFabric(t *testing.T, nodes int) (*sim.Engine, *Fabric) {
	t.Helper()
	e := sim.NewEngine()
	n := noc.New(e, noc.DefaultConfig(nodes))
	f := NewFabric(e, n)
	for i := 0; i < nodes; i++ {
		f.Add(i, 1<<16)
	}
	return e, f
}

func TestSendReceive(t *testing.T) {
	e, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	if err := b.ConfigureRecv(b, 2, 4, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.ConfigureSend(a, 1, 1, 2, 4, 7); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(1, "hello", 16, -1, 0); err != nil {
		t.Fatal(err)
	}
	e.Run()
	m := b.Fetch(2)
	if m == nil {
		t.Fatal("no message delivered")
	}
	if m.Payload.(string) != "hello" || m.SrcPE != 0 || m.Label != 7 {
		t.Fatalf("bad message: %+v", m)
	}
}

func TestCreditsConsumedAndRestoredOnReply(t *testing.T) {
	e, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	b.ConfigureRecv(b, 2, 4, nil)
	a.ConfigureRecv(a, 3, 4, nil) // reply EP
	a.ConfigureSend(a, 1, 1, 2, 2, 0)

	a.Send(1, "req", 16, 3, 0)
	if a.Credits(1) != 1 {
		t.Fatalf("credits after send = %d, want 1", a.Credits(1))
	}
	e.Run()
	m := b.Fetch(2)
	b.Reply(m, "resp", 16)
	e.Run()
	if a.Credits(1) != 2 {
		t.Fatalf("credits after reply = %d, want 2", a.Credits(1))
	}
	r := a.Fetch(3)
	if r == nil || r.Payload.(string) != "resp" {
		t.Fatalf("bad reply: %+v", r)
	}
}

func TestCreditsExhausted(t *testing.T) {
	_, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	b.ConfigureRecv(b, 2, 4, nil)
	a.ConfigureSend(a, 1, 1, 2, 1, 0)
	if err := a.Send(1, 1, 8, -1, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(1, 2, 8, -1, 0); err != ErrNoCredits {
		t.Fatalf("err = %v, want ErrNoCredits", err)
	}
}

func TestAckRestoresCredit(t *testing.T) {
	e, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	b.ConfigureRecv(b, 2, 4, nil)
	a.ConfigureSend(a, 1, 1, 2, 1, 0)
	a.Send(1, "x", 8, -1, 0)
	e.Run()
	b.Ack(b.Fetch(2))
	e.Run()
	if a.Credits(1) != 1 {
		t.Fatalf("credits = %d, want 1", a.Credits(1))
	}
}

func TestMessageLossOnFullEndpoint(t *testing.T) {
	e, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	b.ConfigureRecv(b, 2, 2, nil) // only 2 slots
	a.ConfigureSend(a, 1, 1, 2, 8, 0)
	for i := 0; i < 4; i++ {
		a.Send(1, i, 8, -1, 0)
	}
	e.Run()
	if got := b.Stats().Lost; got != 2 {
		t.Fatalf("lost = %d, want 2", got)
	}
	if got := b.Stats().Received; got != 2 {
		t.Fatalf("received = %d, want 2", got)
	}
}

func TestHandlerDelivery(t *testing.T) {
	e, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	var got []*Message
	b.ConfigureRecv(b, 2, 4, func(m *Message) { got = append(got, m) })
	a.ConfigureSend(a, 1, 1, 2, 4, 0)
	a.Send(1, "via-handler", 8, -1, 0)
	e.Run()
	if len(got) != 1 || got[0].Payload.(string) != "via-handler" {
		t.Fatalf("handler got %v", got)
	}
	if b.Fetch(2) != nil {
		t.Fatal("handled message also queued")
	}
}

func TestWaitBlocksProc(t *testing.T) {
	e, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	b.ConfigureRecv(b, 2, 4, nil)
	a.ConfigureSend(a, 1, 1, 2, 4, 0)
	var at sim.Time
	e.Spawn("recv", func(p *sim.Proc) {
		m := b.Wait(p, 2)
		at = p.Now()
		b.Ack(m)
	})
	e.Schedule(100, func() { a.Send(1, "late", 8, -1, 0) })
	e.Run()
	if at <= 100 {
		t.Fatalf("received at %d, want after 100", at)
	}
}

func TestPrivilegeEnforcement(t *testing.T) {
	_, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	a.Downgrade()
	if err := b.ConfigureRecv(a, 2, 4, nil); err != ErrNotPrivileged {
		t.Fatalf("err = %v, want ErrNotPrivileged", err)
	}
	// A privileged DTU may configure another DTU's endpoints.
	if err := a.ConfigureRecv(b, 2, 4, nil); err != nil {
		t.Fatalf("privileged remote configure failed: %v", err)
	}
}

func TestInvalidate(t *testing.T) {
	_, f := newFabric(t, 4)
	a := f.DTU(0)
	a.ConfigureSend(a, 1, 1, 2, 4, 0)
	if a.EpKindOf(1) != EpSend {
		t.Fatal("endpoint not configured")
	}
	a.Invalidate(a, 1)
	if a.EpKindOf(1) != EpInvalid {
		t.Fatal("endpoint not invalidated")
	}
	if err := a.Send(1, "x", 8, -1, 0); err != ErrBadEndpoint {
		t.Fatalf("err = %v, want ErrBadEndpoint", err)
	}
}

// TestCheckMemWindow: a read-write window admits reads and writes anywhere
// inside it, up to its last byte, and checking takes no simulated time.
func TestCheckMemWindow(t *testing.T) {
	e, f := newFabric(t, 4)
	a := f.DTU(0)
	a.ConfigureMem(a, 5, 3, 100, 64, PermRW)
	for _, c := range []struct {
		off, size uint64
		need      Perm
	}{
		{0, 10, PermR}, {10, 2, PermW}, {0, 64, PermRW}, {63, 1, PermR}, {64, 0, PermW},
	} {
		if err := a.CheckMem(5, c.off, c.size, c.need); err != nil {
			t.Errorf("CheckMem(%d, %d, %v) = %v, want nil", c.off, c.size, c.need, err)
		}
	}
	if pe, off, size := a.MemWindow(5); pe != 3 || off != 100 || size != 64 {
		t.Errorf("MemWindow = (%d, %d, %d), want (3, 100, 64)", pe, off, size)
	}
	if e.Now() != 0 {
		t.Fatalf("checks took %d cycles", e.Now())
	}
}

// TestCheckMemEndpointKind: only a memory endpoint admits an access, and an
// invalidated one no longer does.
func TestCheckMemEndpointKind(t *testing.T) {
	_, f := newFabric(t, 4)
	a := f.DTU(0)
	a.ConfigureSend(a, 1, 1, 2, 4, 0)
	a.ConfigureRecv(a, 2, 4, nil)
	a.ConfigureMem(a, 5, 3, 0, 64, PermRW)
	a.Invalidate(a, 5)
	for _, ep := range []int{0, 1, 2, 5} {
		if err := a.CheckMem(ep, 0, 8, PermR); err != ErrBadEndpoint {
			t.Errorf("%v endpoint %d: err = %v, want ErrBadEndpoint", a.EpKindOf(ep), ep, err)
		}
	}
}

func TestMemPermissionDenied(t *testing.T) {
	_, f := newFabric(t, 4)
	a := f.DTU(0)
	a.ConfigureMem(a, 5, 3, 0, 64, PermR)
	a.ConfigureMem(a, 6, 3, 0, 64, PermW)
	for _, c := range []struct {
		ep   int
		need Perm
	}{{5, PermW}, {5, PermRW}, {5, PermX}, {6, PermR}} {
		if err := a.CheckMem(c.ep, 0, 2, c.need); err != ErrNoPerm {
			t.Errorf("endpoint %d, %v: err = %v, want ErrNoPerm", c.ep, c.need, err)
		}
	}
}

// TestMemOutOfBounds: an access past the window's end, one whose end
// overflows, and one inside the window but past the memory the target PE
// declared are all refused.
func TestMemOutOfBounds(t *testing.T) {
	_, f := newFabric(t, 4)
	a := f.DTU(0)
	a.ConfigureMem(a, 5, 3, 0, 64, PermRW)
	a.ConfigureMem(a, 6, 3, 1<<16-32, 64, PermRW) // the target has 1<<16 bytes
	for _, c := range []struct {
		ep        int
		off, size uint64
	}{
		{5, 60, 10}, {5, 64, 1}, {5, 8, ^uint64(0) - 4}, {6, 16, 32}, {6, 32, 1},
	} {
		if err := a.CheckMem(c.ep, c.off, c.size, PermR); err != ErrOutOfBounds {
			t.Errorf("endpoint %d at %d, %d bytes: err = %v, want ErrOutOfBounds", c.ep, c.off, c.size, err)
		}
	}
	if err := a.CheckMem(6, 0, 32, PermR); err != nil {
		t.Errorf("the target's last 32 bytes: err = %v, want nil", err)
	}
}

func TestPermString(t *testing.T) {
	if s := PermRW.String(); s != "rw-" {
		t.Fatalf("PermRW = %q", s)
	}
	if s := (PermR | PermX).String(); s != "r-x" {
		t.Fatalf("R|X = %q", s)
	}
}

// Property: for any sequence of sends within credit limits, every message is
// delivered exactly once and in order per sender.
func TestNoLossWithinCredits(t *testing.T) {
	f := func(nMsgs uint8) bool {
		n := int(nMsgs%DefaultSlots) + 1
		e := sim.NewEngine()
		net := noc.New(e, noc.DefaultConfig(2))
		fab := NewFabric(e, net)
		a := fab.Add(0, 0)
		b := fab.Add(1, 0)
		b.ConfigureRecv(b, 0, DefaultSlots, nil)
		a.ConfigureSend(a, 0, 1, 0, DefaultSlots, 0)
		for i := 0; i < n; i++ {
			if err := a.Send(0, i, 8, -1, 0); err != nil {
				return false
			}
		}
		e.Run()
		for i := 0; i < n; i++ {
			m := b.Fetch(0)
			if m == nil || m.Payload.(int) != i {
				return false
			}
		}
		return b.Stats().Lost == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// --- coalesced (vectored) delivery ---------------------------------------

func vecOf(n int) []VecItem {
	items := make([]VecItem, n)
	for i := range items {
		items[i] = VecItem{Payload: i, Size: 16}
	}
	return items
}

// TestSendVecToOneDeliveryEvent: a coalesced vector reaches a vec-handler
// endpoint as one NoC delivery event with one handler call carrying all
// messages, and occupies a single receive slot.
func TestSendVecToOneDeliveryEvent(t *testing.T) {
	e, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	var batches int
	var got []*Message
	if err := b.ConfigureRecvVec(b, 2, 4, func(msgs []*Message) {
		batches++
		got = msgs
	}); err != nil {
		t.Fatal(err)
	}
	before := e.Executed()
	if err := a.SendVecTo(1, 2, vecOf(5)); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if ran := e.Executed() - before; ran != 1 {
		t.Fatalf("vector delivery took %d events, want 1", ran)
	}
	if batches != 1 || len(got) != 5 {
		t.Fatalf("handler calls = %d with %d messages, want 1 call with 5", batches, len(got))
	}
	for i, m := range got {
		if m.Payload.(int) != i || m.SrcPE != 0 {
			t.Fatalf("message %d corrupted: %+v", i, m)
		}
	}
	if b.Stats().VecDeliveries != 1 || b.Stats().Received != 5 {
		t.Fatalf("stats: %+v", b.Stats())
	}
	// The whole vector holds one slot; freeing all siblings releases it.
	for i, m := range got {
		if i < len(got)-1 {
			b.Free(m)
		}
	}
	if err := a.SendVecTo(1, 2, vecOf(3)); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if batches != 2 {
		t.Fatal("second vector not delivered while slots were free")
	}
}

// TestSendVecSharedSlot: a 4-slot endpoint accepts 4 whole vectors (each is
// one wire message) and drops the 5th.
func TestSendVecSharedSlot(t *testing.T) {
	e, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	delivered := 0
	b.ConfigureRecvVec(b, 2, 4, func(msgs []*Message) { delivered += len(msgs) })
	for i := 0; i < 5; i++ {
		a.SendVecTo(1, 2, vecOf(8))
	}
	e.Run()
	if delivered != 4*8 {
		t.Fatalf("delivered %d messages, want %d", delivered, 4*8)
	}
	if b.Stats().Lost != 1 {
		t.Fatalf("lost = %d, want 1 (one whole vector)", b.Stats().Lost)
	}
}

// TestVecQueueSingleWake: a consumer parked in Wait on a queue endpoint is
// woken once per vector, not once per message — one goroutine handoff per
// batch — and finds the rest of the vector queued behind the first message.
func TestVecQueueSingleWake(t *testing.T) {
	e, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	b.ConfigureRecv(b, 2, 8, nil) // queue endpoint, no handler
	wakes := 0
	var sizes []int
	e.Spawn("drain", func(p *sim.Proc) {
		msgs := []*Message{b.Wait(p, 2)}
		wakes++
		for m := b.Fetch(2); m != nil; m = b.Fetch(2) {
			msgs = append(msgs, m)
		}
		sizes = append(sizes, len(msgs))
		for _, m := range msgs {
			b.Free(m)
		}
	})
	a.SendVecTo(1, 2, vecOf(6))
	e.Run()
	if wakes != 1 || len(sizes) != 1 || sizes[0] != 6 {
		t.Fatalf("wakes=%d sizes=%v, want one wake draining 6", wakes, sizes)
	}
	if r := e.Resumes(); r != 2 { // its start, and the vector's arrival
		t.Fatalf("the consumer was switched in %d times, want 2", r)
	}
}

// TestSendVecToRequiresPrivilege: user DTUs cannot inject EP-less vectors.
func TestSendVecToRequiresPrivilege(t *testing.T) {
	_, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	b.ConfigureRecvVec(b, 2, 4, func([]*Message) {})
	a.Downgrade()
	if err := a.SendVecTo(1, 2, vecOf(2)); err != ErrNotPrivileged {
		t.Fatalf("err = %v, want ErrNotPrivileged", err)
	}
	if err := f.DTU(2).SendVecTo(1, 2, nil); err == nil {
		t.Fatal("empty vector accepted")
	}
}

// TestVecQueueDeliveryAndSlotRelease: a vector delivered to a queue
// endpoint is fetchable message by message, but occupies its shared slot
// until the last sibling is freed.
func TestVecQueueDeliveryAndSlotRelease(t *testing.T) {
	e, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	b.ConfigureRecv(b, 2, 1, nil) // a single slot
	a.SendVecTo(1, 2, vecOf(4))
	e.Run()
	var msgs []*Message
	for {
		m := b.Fetch(2)
		if m == nil {
			break
		}
		msgs = append(msgs, m)
	}
	if len(msgs) != 4 {
		t.Fatalf("fetched %d messages, want 4", len(msgs))
	}
	// The slot is still held until the last sibling is freed.
	a.SendVecTo(1, 2, vecOf(1))
	e.Run()
	if b.Stats().Lost != 1 {
		t.Fatalf("lost = %d, want 1 while the slot is shared", b.Stats().Lost)
	}
	for _, m := range msgs {
		b.Free(m)
	}
	a.SendVecTo(1, 2, vecOf(1))
	e.Run()
	if b.Stats().Lost != 1 {
		t.Fatalf("lost = %d after slot release, want still 1", b.Stats().Lost)
	}
}

// TestPerEndpointLossBreakdown: drops at two endpoints whose slots ran out
// both count in the DTU's Lost total, and each drop also reaches the
// fabric-wide NoC counter.
func TestPerEndpointLossBreakdown(t *testing.T) {
	e, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	b.ConfigureRecv(b, 2, 2, nil) // 2 slots on EP 2
	b.ConfigureRecv(b, 3, 1, nil) // 1 slot on EP 3
	a.ConfigureSend(a, 1, 1, 2, 16, 0)
	a.ConfigureSend(a, 4, 1, 3, 16, 0)
	for i := 0; i < 4; i++ {
		a.Send(1, i, 8, -1, 0) // 2 land, 2 drop on EP 2
	}
	for i := 0; i < 3; i++ {
		a.Send(4, i, 8, -1, 0) // 1 lands, 2 drop on EP 3
	}
	e.Run()
	st := b.Stats()
	if st.Lost != 4 || st.Received != 3 {
		t.Fatalf("Lost = %d, Received = %d, want 4 and 3", st.Lost, st.Received)
	}
	if got := f.net.Stats().Lost; got != st.Lost {
		t.Fatalf("NoC Lost = %d, want %d (receiver drops aggregate fabric-wide)", got, st.Lost)
	}
}

// syscallPair wires the syscall pattern between two DTUs — a client that
// sends, waits for the reply and acks it, a server that waits and replies,
// both on queue endpoints — and returns a function that pushes one round
// trip through it. Every message crosses both endpoints' wait queues.
func syscallPair(tb testing.TB) (e *sim.Engine, roundTrip func()) {
	tb.Helper()
	e = sim.NewEngine()
	n := noc.New(e, noc.DefaultConfig(4))
	f := NewFabric(e, n)
	client, server := f.Add(0, 0), f.Add(1, 0)
	server.ConfigureRecv(server, 2, 4, nil)
	client.ConfigureRecv(client, 3, 2, nil)
	client.ConfigureSend(client, 1, 1, 2, 1, 0)
	req, rep := new(int), new(int) // pointer payloads: boxing them is free
	start := sim.NewQueue[struct{}]()
	e.Spawn("server", func(p *sim.Proc) {
		for {
			server.Reply(server.Wait(p, 2), rep, 16)
		}
	})
	e.Spawn("client", func(p *sim.Proc) {
		for {
			start.Pop(p)
			if err := client.Send(1, req, 64, 3, 0); err != nil {
				tb.Errorf("send: %v", err)
				return
			}
			client.Ack(client.Wait(p, 3))
		}
	})
	e.Run() // both park
	return e, func() {
		start.Push(struct{}{})
		e.Run()
	}
}

// TestWaitQueuesAllocateNothing: a warmed send → Wait → Reply → Wait → Ack
// round trip allocates nothing. Its two messages and the credit return come
// off the fabric's free list and are their own delivery events; queueing a
// message at an endpoint and registering a waiter there reuse the
// endpoint's arrays instead of growing a fresh one after every drain. The
// same holds for a coalesced vector: its messages, its slice and its shared
// bookkeeping are all recycled.
func TestWaitQueuesAllocateNothing(t *testing.T) {
	e, roundTrip := syscallPair(t)
	defer e.Kill()
	roundTrip()
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Fatalf("round trip allocates %v times, want 0", allocs)
	}

	e2, f := newFabric(t, 2)
	a, b := f.DTU(0), f.DTU(1)
	b.ConfigureRecvVec(b, 2, 4, func(ms []*Message) {
		for _, m := range ms {
			b.Free(m)
		}
	})
	items := vecOf(4)
	vecCycle := func() {
		if err := a.SendVecTo(1, 2, items); err != nil {
			t.Fatal(err)
		}
		e2.Run()
	}
	vecCycle()
	if allocs := testing.AllocsPerRun(200, vecCycle); allocs != 0 {
		t.Fatalf("4-item SendVecTo/Free cycle allocates %v times, want 0", allocs)
	}
}

// mustPanic runs fn and fails unless it panics with exactly want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if got := recover(); got != want {
			t.Fatalf("panic = %v, want %q", got, want)
		}
	}()
	fn()
}

// TestReleasedMessageMisuseIsLoud: a message handed back by Reply, Ack or
// Free waits for reuse with its fields zeroed and its freed mark set,
// so a stale read yields nil instead of another message's payload and a
// second release of any kind panics.
func TestReleasedMessageMisuseIsLoud(t *testing.T) {
	e, f := newFabric(t, 2)
	a, b := f.DTU(0), f.DTU(1)
	b.ConfigureRecv(b, 2, 4, nil)
	a.ConfigureRecv(a, 3, 4, nil)
	a.ConfigureSend(a, 1, 1, 2, 4, 9)
	release := map[string]func(*Message){
		"Reply": func(m *Message) { b.Reply(m, "resp", 16) },
		"Ack":   b.Ack,
		"Free":  b.Free,
	}
	for first, rel := range release {
		if err := a.Send(1, "secret", 16, 3, 0); err != nil {
			t.Fatal(err)
		}
		e.Run()
		m := b.Fetch(2)
		if m.Payload != "secret" || m.Label != 9 {
			t.Fatalf("bad message: %+v", m)
		}
		rel(m)
		if m.Payload != nil || m.Label != 0 || m.Size != 0 {
			t.Fatalf("after %s the message still reads payload %v label %d size %d", first, m.Payload, m.Label, m.Size)
		}
		for _, again := range release {
			mustPanic(t, "dtu: message freed twice", func() { again(m) })
		}
		e.Run()
		for r := a.Fetch(3); r != nil; r = a.Fetch(3) {
			a.Free(r)
		}
	}
	// A foreign release is still told apart from a double one.
	a.Send(1, "x", 16, -1, 0)
	e.Run()
	mustPanic(t, "dtu: Free on foreign message", func() { a.Free(b.Fetch(2)) })
}

// TestInvalidateDropsQueuedMessages: invalidating a receive endpoint with
// messages still queued abandons them to the garbage collector — they never
// go back for reuse, so nothing recycled can alias them. The endpoint is
// empty when reconfigured, and a consumer that fetched a message before the
// invalidation can still release it.
func TestInvalidateDropsQueuedMessages(t *testing.T) {
	e, f := newFabric(t, 2)
	a, b := f.DTU(0), f.DTU(1)
	b.ConfigureRecv(b, 2, 4, nil)
	a.ConfigureSend(a, 1, 1, 2, 4, 0)
	for i := 0; i < 3; i++ {
		a.Send(1, i, 16, -1, 0)
	}
	e.Run()
	held := b.Fetch(2) // two more stay queued
	listed, out := f.msgs.Idle(), f.msgs.Held()
	if err := b.Invalidate(b, 2); err != nil {
		t.Fatal(err)
	}
	if idle, got := f.msgs.Idle(), f.msgs.Held(); idle != listed || got != out {
		t.Fatalf("Invalidate moved the released messages from %d to %d and the held ones from %d to %d", listed, idle, out, got)
	}
	b.ConfigureRecv(b, 2, 4, nil)
	if m := b.Fetch(2); m != nil {
		t.Fatalf("reconfigured endpoint still holds %+v", m)
	}
	if held.Payload != 0 {
		t.Fatalf("held message changed under Invalidate: %+v", held)
	}
	b.Free(held) // the new endpoint's slot count must not go negative
	if used := b.Occupied(2); used != 0 {
		t.Fatalf("used = %d after releasing a pre-invalidation message, want 0", used)
	}
	if idle, got := f.msgs.Idle(), f.msgs.Held(); idle != listed+1 || got != out-1 {
		t.Fatalf("%d messages released and %d held, want %d and %d (the held one only came back)", idle, got, listed+1, out-1)
	}
	a.ConfigureSend(a, 1, 1, 2, 4, 0)
	for i := 0; i < 4; i++ {
		if err := a.Send(1, i, 16, -1, 0); err != nil {
			t.Fatalf("send %d after reconfigure: %v", i, err)
		}
	}
	e.Run()
	if lost := b.Stats().Lost; lost != 0 {
		t.Fatalf("Lost = %d, want 0", lost)
	}
}

// dupPair duplicates every message of one (src, dst) pair.
type dupPair struct{ src, dst int }

func (d dupPair) Inspect(now sim.Time, src, dst, size int) noc.Verdict {
	return noc.Verdict{Dup: src == d.src && dst == d.dst}
}

// TestDuplicateDeliveriesAreDistinctObjects: the server replies inside the
// delivery event, so the first copy of a duplicated request is released —
// and reused for the reply — one cycle before the second copy lands. The
// two deliveries must therefore be different objects with the same content;
// each is replied to and each reply acked on its own; the sender's credits
// end at their maximum; and in steady state a duplicated round trip neither
// allocates nor changes how many messages are released or held (no object
// is lost, none is released twice), and every released one reads as such.
func TestDuplicateDeliveriesAreDistinctObjects(t *testing.T) {
	for _, tc := range []struct {
		name string
		inj  dupPair
	}{
		{"request duplicated", dupPair{0, 1}},
		{"reply duplicated", dupPair{1, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, f := newFabric(t, 2)
			f.net.SetInjector(tc.inj)
			a, b := f.DTU(0), f.DTU(1)
			var reqs, reps []*Message
			b.ConfigureRecv(b, 2, 4, func(m *Message) {
				if m.Payload != "req" || m.SrcPE != 0 || m.SrcEP != 1 || m.ReplyEP != 3 {
					t.Errorf("bad request %+v", m)
				}
				reqs = append(reqs, m)
				b.Reply(m, "rep", 16)
			})
			a.ConfigureRecv(a, 3, 4, func(m *Message) {
				if m.Payload != "rep" || m.SrcPE != 1 {
					t.Errorf("bad reply %+v", m)
				}
				reps = append(reps, m)
				a.Ack(m)
			})
			a.ConfigureSend(a, 1, 1, 2, 2, 0)
			roundTrip := func() {
				reqs, reps = reqs[:0], reps[:0]
				if err := a.Send(1, "req", 64, 3, 0); err != nil {
					t.Fatal(err)
				}
				e.Run()
			}
			roundTrip()
			wantReqs, wantReps := 1, 2
			if tc.inj.src == 0 {
				wantReqs, wantReps = 2, 2
			}
			if len(reqs) != wantReqs || len(reps) != wantReps {
				t.Fatalf("%d request and %d reply deliveries, want %d and %d", len(reqs), len(reps), wantReqs, wantReps)
			}
			if wantReqs == 2 && reqs[0] == reqs[1] {
				t.Fatal("both deliveries of the duplicated request are the same object")
			}
			if reps[0] == reps[1] {
				t.Fatal("both reply deliveries are the same object")
			}
			if got := a.Credits(1); got != 2 {
				t.Fatalf("credits = %d, want the maximum 2", got)
			}
			if used := a.Occupied(3) + b.Occupied(2); used != 0 {
				t.Fatalf("%d slots still occupied", used)
			}
			roundTrip()
			start, held := f.msgs.Idle(), f.msgs.Held()
			if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
				t.Fatalf("duplicated round trip allocates %v times, want 0", allocs)
			}
			if got, h := f.msgs.Idle(), f.msgs.Held(); got != start || h != held {
				t.Fatalf("%d messages released and %d held, started at %d and %d", got, h, start, held)
			}
			for i, m := range releasedMessages(f) {
				if !m.freed || m.Payload != nil {
					t.Fatalf("released message %d is not a released message: %+v", i, m)
				}
			}
		})
	}
}

// BenchmarkDTUWaitReply measures one syscall-shaped DTU round trip between
// two parked procs: 0 allocs/op (TestWaitQueuesAllocateNothing pins it).
func BenchmarkDTUWaitReply(b *testing.B) {
	e, roundTrip := syscallPair(b)
	defer e.Kill()
	roundTrip()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}

// TestDTUSize pins an endpoint to four words and a DTU to 576 B. Every PE
// has a DTU, all of a machine's DTUs are one slab (NewFabric), and most are
// user PEs that configure two or three of their sixteen endpoints; a send
// and a memory endpoint overlay their fields, so growing an endpoint by a
// word costs 128 B per PE and fails here.
func TestDTUSize(t *testing.T) {
	if got := unsafe.Sizeof(endpoint{}); got != 32 {
		t.Errorf("unsafe.Sizeof(endpoint{}) = %d B, want 32", got)
	}
	if got := unsafe.Sizeof(DTU{}); got > 576 {
		t.Errorf("unsafe.Sizeof(DTU{}) = %d B, want at most 576", got)
	}
}

// TestFabricBytesPerPE: a 640-PE machine's fabric, the evaluation platform's
// size, allocates at most 600 B per PE when NewFabric builds it: its slab
// of DTUs and nothing per PE besides.
func TestFabricBytesPerPE(t *testing.T) {
	const pes = 640
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	net := noc.New(sim.NewEngine(), noc.DefaultConfig(pes))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f := NewFabric(nil, net)
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / pes; per > 600 {
		t.Fatalf("NewFabric allocates %d B per PE, want at most 600", per)
	}
	runtime.KeepAlive(f)
}

// TestSendEndpointRoundTrip: a send endpoint gives back its target, its
// label with the top bit set, and its credits, and grants no memory window.
func TestSendEndpointRoundTrip(t *testing.T) {
	e, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	const label = 1<<63 | 0x5eed
	b.ConfigureRecv(b, 2, 4, nil)
	a.ConfigureSend(a, 1, 1, 2, 3, label)
	if got := a.Credits(1); got != 3 {
		t.Fatalf("credits = %d, want 3", got)
	}
	if pe, off, size := a.MemWindow(1); pe != 0 || off != 0 || size != 0 {
		t.Fatalf("send endpoint's MemWindow = (%d, %d, %d), want none", pe, off, size)
	}
	if err := a.Send(1, "x", 8, -1, 0); err != nil {
		t.Fatal(err)
	}
	e.Run()
	m := b.Fetch(2)
	if m == nil || m.Label != label || m.SrcPE != 0 || m.SrcEP != 1 {
		t.Fatalf("delivered %+v, want label %#x from PE 0 endpoint 1", m, uint64(label))
	}
	if got := a.Credits(1); got != 2 {
		t.Fatalf("credits after a send = %d, want 2", got)
	}
}

// wideFabric is a fabric of two PEs, the second with 2^40 bytes of memory.
func wideFabric() (*sim.Engine, *Fabric) {
	e := sim.NewEngine()
	f := NewFabric(e, noc.New(e, noc.DefaultConfig(2)))
	f.Add(0, 1<<16)
	f.Add(1, 1<<40)
	return e, f
}

// TestMemEndpointAboveFourGiB: a memory window whose offset and size are
// both at least 2^32 comes back whole from MemWindow and bounds CheckMem at
// its last byte; it has no credits.
func TestMemEndpointAboveFourGiB(t *testing.T) {
	_, f := wideFabric()
	a := f.DTU(0)
	const off, size = 3 << 32, 5<<32 + 24
	a.ConfigureMem(a, 4, 1, off, size, PermRW)
	if pe, o, s := a.MemWindow(4); pe != 1 || o != off || s != size {
		t.Fatalf("MemWindow = (%d, %#x, %#x), want (1, %#x, %#x)", pe, o, s, uint64(off), uint64(size))
	}
	if err := a.CheckMem(4, size-8, 8, PermW); err != nil {
		t.Fatalf("the window's last 8 bytes: err = %v, want nil", err)
	}
	if err := a.CheckMem(4, size-7, 8, PermR); err != ErrOutOfBounds {
		t.Fatalf("one byte past the window: err = %v, want ErrOutOfBounds", err)
	}
	if got := a.Credits(4); got != 0 {
		t.Fatalf("memory endpoint's credits = %d, want 0", got)
	}
}

// TestCreditRestoreTouchesOnlySendEndpoints: an Ack restores its credit to
// the sender's send endpoint; if the sender has made that endpoint a memory
// endpoint meanwhile, the credit message leaves its window as it was. The
// window's size, read as two halves, would look like credits below their
// maximum.
func TestCreditRestoreTouchesOnlySendEndpoints(t *testing.T) {
	e, f := wideFabric()
	a, b := f.DTU(0), f.DTU(1)
	b.ConfigureRecv(b, 2, 4, nil)
	a.ConfigureSend(a, 1, 1, 2, 2, 0)
	a.Send(1, "x", 8, -1, 0)
	a.Send(1, "y", 8, -1, 0)
	e.Run()
	b.Ack(b.Fetch(2))
	e.Run()
	if got := a.Credits(1); got != 1 {
		t.Fatalf("credits after one ack = %d, want 1", got)
	}

	const size = 2<<32 | 1
	a.ConfigureMem(a, 1, 1, 64, size, PermR)
	b.Ack(b.Fetch(2))
	e.Run()
	if pe, off, got := a.MemWindow(1); pe != 1 || off != 64 || got != size {
		t.Fatalf("MemWindow after a credit arrived = (%d, %d, %#x), want (1, 64, %#x)", pe, off, got, uint64(size))
	}
	if err := a.CheckMem(1, size, 1, PermR); err != ErrOutOfBounds {
		t.Fatalf("CheckMem past the window: err = %v, want ErrOutOfBounds", err)
	}
}

// TestReconfigureRecvSendMem: an endpoint reconfigured from receive to send
// to memory is each kind in turn, with nothing of the kind before, and
// leaving the receive kind returns its state to the fabric's recycler.
func TestReconfigureRecvSendMem(t *testing.T) {
	_, f := newFabric(t, 4)
	a := f.DTU(0)
	a.ConfigureRecv(a, 6, 4, nil)
	if f.recvs.Held() != 1 {
		t.Fatalf("%d receive states held, want 1", f.recvs.Held())
	}
	a.ConfigureSend(a, 6, 2, 3, 5, 1<<40)
	if a.EpKindOf(6) != EpSend || a.eps[6].recv != nil || a.Occupied(6) != 0 {
		t.Fatalf("endpoint 6 is %v with receive state %p", a.EpKindOf(6), a.eps[6].recv)
	}
	if held, idle := f.recvs.Held(), f.recvs.Idle(); held != 0 || idle != 1 {
		t.Fatalf("receive states: %d held, %d idle, want 0 and 1", held, idle)
	}
	if got := a.Credits(6); got != 5 {
		t.Fatalf("credits = %d, want 5", got)
	}
	a.ConfigureMem(a, 6, 1, 8, 16, PermR)
	if pe, off, size := a.MemWindow(6); a.EpKindOf(6) != EpMem || pe != 1 || off != 8 || size != 16 {
		t.Fatalf("%v endpoint, MemWindow = (%d, %d, %d), want mem (1, 8, 16)", a.EpKindOf(6), pe, off, size)
	}
	if got := a.Credits(6); got != 0 {
		t.Fatalf("memory endpoint's credits = %d, want 0", got)
	}
}

// TestOverlaidFieldsCheckTheirKind: reading an overlaid field through the
// wrong kind panics instead of reading the other kind's data.
func TestOverlaidFieldsCheckTheirKind(t *testing.T) {
	mem, send := memEndpoint(1, 0, 64, PermR), sendEndpoint(1, 2, 4, 0)
	mustPanic(t, "dtu: mem endpoint read as send", func() { mem.credits() })
	mustPanic(t, "dtu: mem endpoint read as send", func() { mem.setCredits(1) })
	mustPanic(t, "dtu: mem endpoint read as send", func() { mem.label() })
	mustPanic(t, "dtu: send endpoint read as mem", func() { send.window() })
}

// TestRecvStateSize pins a receive endpoint's state to the 112 B size
// class: its queue is a sim.Queue, which keeps no engine pointer, so the
// items and waiters of the queue take the place of the two FIFOs the state
// held before, and each FIFO holds its first element inline, so that a
// reply endpoint — one message, one waiter at a time — allocates no array.
func TestRecvStateSize(t *testing.T) {
	if got := unsafe.Sizeof(recvState{}); got != 112 {
		t.Fatalf("unsafe.Sizeof(recvState{}) = %d B, want 112", got)
	}
}
