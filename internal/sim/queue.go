package sim

// This file holds the kernel's event-queue structures: a 4-ary min-heap
// of slab slot ids and the per-edge pending lists.

// less orders slab events by delivery time, then by scheduling sequence.
func (s *simulation) less(a, b int32) bool {
	ea, eb := &s.slab[a], &s.slab[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

// heapPush adds slot id to the 4-ary heap.
func (s *simulation) heapPush(id int32) {
	h := append(s.heap, id)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !s.less(id, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = id
	s.heap = h
}

// heapPop removes and returns the earliest slot id; the heap must be
// non-empty.
func (s *simulation) heapPop() int32 {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			best := c
			for j := c + 1; j < c+4 && j < n; j++ {
				if s.less(h[j], h[best]) {
					best = j
				}
			}
			if !s.less(h[best], last) {
				break
			}
			h[i] = h[best]
			i = best
		}
		h[i] = last
	}
	s.heap = h
	return top
}

// pendingList is an edge's FIFO of scheduled, undelivered output slot ids.
// Retiring the front advances a head index; the dead prefix is copied away
// only when the backing array is full and at least half dead, so both
// retirement and scheduling are amortized O(1) and the list does not
// creep through memory.
type pendingList struct {
	ids  []int32
	head int
}

// push appends id at the back.
func (p *pendingList) push(id int32) {
	if len(p.ids) == cap(p.ids) && 2*p.head >= len(p.ids) {
		p.ids = p.ids[:copy(p.ids, p.ids[p.head:])]
		p.head = 0
	}
	p.ids = append(p.ids, id)
}

// last returns the most recently scheduled pending id.
func (p *pendingList) last() (int32, bool) {
	if p.head == len(p.ids) {
		return 0, false
	}
	return p.ids[len(p.ids)-1], true
}

// dropLast removes the most recently scheduled pending id.
func (p *pendingList) dropLast() {
	p.ids = p.ids[:len(p.ids)-1]
	p.reset()
}

// remove retires a delivered id: normally the front (O(1)); exotic channel
// models whose outputs interleave (fault wrappers with extra or pushed-out
// transitions) fall back to a scan.
func (p *pendingList) remove(id int32) {
	if p.head < len(p.ids) && p.ids[p.head] == id {
		p.head++
	} else {
		for i := p.head; i < len(p.ids); i++ {
			if p.ids[i] == id {
				p.ids = append(p.ids[:i], p.ids[i+1:]...)
				break
			}
		}
	}
	p.reset()
}

// reset rewinds an emptied list to the start of its backing array.
func (p *pendingList) reset() {
	if p.head == len(p.ids) {
		p.ids = p.ids[:0]
		p.head = 0
	}
}
