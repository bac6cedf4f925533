//simlint:importpath spiderfs/internal/sweep/fixture

// Sabotage fixture for shard isolation: inside internal/sweep a
// goroutine may write only its own slot. Writing state captured from
// outside the go func — a scalar, a shared map, a fixed slice index —
// bypasses the own-slot discipline that keeps the parallel run's merge
// order deterministic, and is flagged even when a mutex would make it
// race-free.
package fixture

import "sync"

type result struct {
	fired uint64
}

// scalar accumulation across workers: the classic own-slot bypass.
func tallyAcross(parts [][]uint64) uint64 {
	var total uint64
	var wg sync.WaitGroup
	for _, part := range parts {
		wg.Add(1)
		go func(part []uint64) {
			defer wg.Done()
			for _, v := range part {
				total += v // want shard-isolation
			}
		}(part)
	}
	wg.Wait()
	return total
}

// shared map write: target is shared no matter where the key came from.
func collect(names []string) map[string]int {
	seen := map[string]int{}
	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			seen[name]++ // want shard-isolation
		}(name)
	}
	wg.Wait()
	return seen
}

// fixed slice index: every worker shares slot zero.
func firstOnly(parts []result) []uint64 {
	out := make([]uint64, 1)
	var wg sync.WaitGroup
	for _, p := range parts {
		wg.Add(1)
		go func(p result) {
			defer wg.Done()
			out[0] = p.fired // want shard-isolation
		}(p)
	}
	wg.Wait()
	return out
}

// a lock does not excuse it here: mutex order is scheduler order, and
// scheduler order is exactly what the index-ordered merge must not see.
func lockedTally(parts [][]uint64) uint64 {
	var mu sync.Mutex
	var total uint64
	var wg sync.WaitGroup
	for _, part := range parts {
		wg.Add(1)
		go func(part []uint64) {
			defer wg.Done()
			mu.Lock()
			for _, v := range part {
				total += v // want shard-isolation
			}
			mu.Unlock()
		}(part)
	}
	wg.Wait()
	return total
}
