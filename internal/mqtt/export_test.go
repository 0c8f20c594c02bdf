package mqtt

// OpenPipeListeners counts the in-process listeners still registered.
func OpenPipeListeners() int {
	pipes.Lock()
	defer pipes.Unlock()
	return len(pipes.open)
}
