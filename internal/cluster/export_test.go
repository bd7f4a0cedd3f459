package cluster

// SetQueueCap sets the rank queue's capacity for the clusters built after
// it and returns a function that restores the previous one.
func SetQueueCap(n int) (restore func()) {
	old := queueCap
	queueCap = n
	return func() { queueCap = old }
}

// RankBlocked returns each rank process's blocked seconds, in spawn order.
func RankBlocked(cl *Cluster) []float64 {
	out := make([]float64, len(cl.procs))
	for i, p := range cl.procs {
		out[i] = p.BlockedSeconds()
	}
	return out
}
