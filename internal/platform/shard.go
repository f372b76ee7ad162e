package platform

import "sort"

// ShardRouter maps market entities onto a round's partitions.  The key is
// the category: a task lives in exactly the partition that owns its
// category, and a worker is resident in every partition owning one of its
// specialties.  Because the benefit model only creates edges between a
// worker and tasks in its specialty categories, this placement puts every
// eligible (worker, task) edge in exactly one partition — per-partition
// solves see complete local markets, and only workers whose specialties
// span partitions can be over-subscribed across them (the reconciliation
// pass's job).
//
// The mapping is a pure function of (category, Shards), recomputed every
// round from one market's snapshot, so the partition count may change
// freely between restarts.
type ShardRouter struct {
	// Shards is the partition count (≥ 1).
	Shards int
}

// shardOfCategory spreads categories over shards with a splitmix64-style
// finalizer rather than bare modulo, so striped category numbering (common
// in generators) cannot alias all load onto few shards.
func shardOfCategory(category, shards int) int {
	x := uint64(category)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(shards))
}

// TaskShard returns the shard owning a task category.
func (r ShardRouter) TaskShard(category int) int {
	return shardOfCategory(category, r.Shards)
}

// WorkerShards returns the sorted, deduplicated shard set a worker with the
// given specialties is resident in.  The result is never empty for a valid
// profile (validateWorkerProfile requires at least one specialty).
func (r ShardRouter) WorkerShards(specialties []int) []int {
	out := make([]int, 0, len(specialties))
	for _, sp := range specialties {
		k := shardOfCategory(sp, r.Shards)
		dup := false
		for _, kk := range out {
			if kk == k {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, k)
		}
	}
	sort.Ints(out)
	return out
}
