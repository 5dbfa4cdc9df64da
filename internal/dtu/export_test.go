package dtu

// releasedMessages returns the messages f keeps for reuse, most recently
// released first, and leaves them as they were: it takes each back out of
// the recycler and returns them in the order they went in.
func releasedMessages(f *Fabric) []*Message {
	ms := make([]*Message, f.msgs.Idle())
	for i := range ms {
		ms[i] = f.msgs.New(1)
	}
	for i := len(ms) - 1; i >= 0; i-- {
		f.msgs.Put(ms[i])
	}
	return ms
}

// Fetch removes and returns the oldest queued message on receive endpoint
// ep, or nil. The slot stays occupied until Reply or Ack.
func (d *DTU) Fetch(ep int) *Message {
	checkEP(ep)
	e := d.eps[ep].recv
	if e == nil {
		return nil
	}
	m, _ := e.queue.TryPop()
	return m
}
