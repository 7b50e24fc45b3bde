package sim

// ForgetTrainedAgents empties the process-wide trained-agent cache, so a
// test that expects a miss gets one however often it runs (-count). The
// lookup counters keep counting.
func ForgetTrainedAgents() {
	agents.mu.Lock()
	defer agents.mu.Unlock()
	agents.entries = make(map[agentKey]*agentEntry)
	agents.lru.Init()
}
