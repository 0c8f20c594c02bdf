package mqtt

// OpenPipeListeners counts the in-process listeners still registered.
func OpenPipeListeners() int {
	pipes.Lock()
	defer pipes.Unlock()
	return len(pipes.open)
}

// queueSlots reports how many packet slots of storage the named session's
// outbound queue holds, and whether a session by that ID is registered.
func (b *Broker) queueSlots(id string) (int, bool) {
	b.mu.RLock()
	s, ok := b.sessions[id]
	b.mu.RUnlock()
	if !ok {
		return 0, false
	}
	s.q.mu.Lock()
	defer s.q.mu.Unlock()
	return len(s.q.ring), true
}

// waitingPushes reports how many pushes wait for room on q.
func (q *outQueue) waitingPushes() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.waiting)
}
