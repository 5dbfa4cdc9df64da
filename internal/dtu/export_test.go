package dtu

// Fetch removes and returns the oldest queued message on receive endpoint
// ep, or nil. The slot stays occupied until Reply or Ack.
func (d *DTU) Fetch(ep int) *Message {
	checkEP(ep)
	e := d.eps[ep].recv
	if e == nil || e.queue.Len() == 0 {
		return nil
	}
	return e.queue.Pop()
}
