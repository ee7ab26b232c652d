package mr

import "mrtext/internal/cluster"

// KeptRegions reports the spill regions in the map workspaces c keeps: one
// count per workspace, and how many distinct arenas they hold in all — as
// many as the counts add up to unless a region is in two places at once.
// It takes every workspace off the list and puts it back, so no map task
// may be running.
func KeptRegions(c *cluster.Cluster) (perWorkspace []int, distinct int) {
	arenas := make(map[*byte]bool)
	var taken []any
	for range c.MapWorkspaces.Free() {
		x := c.MapWorkspaces.Get()
		taken = append(taken, x)
		n := 0
		for _, r := range x.(*mapWorkspace).regions {
			if cap(r.Arena) > 0 {
				n++
				arenas[&r.Arena[:1][0]] = true
			}
		}
		perWorkspace = append(perWorkspace, n)
	}
	for _, x := range taken {
		c.MapWorkspaces.Put(x)
	}
	return perWorkspace, len(arenas)
}

// SetAttemptLimit bounds j's attempts per task at n instead of
// maxAttempts, for tests of retry exhaustion and of long fault streaks.
func SetAttemptLimit(j *Job, n int) { j.attemptLimit = n }

// SetStagingBudget bounds j's staging buffer at n bytes instead of
// stagingBudget, for tests that force segments to be direct-fetched.
func SetStagingBudget(j *Job, n int64) { j.stagingBytes = n }

// PlanOf returns the splits Run plans for j on c.
func PlanOf(c *cluster.Cluster, j *Job) ([]Split, error) {
	job, err := j.withDefaults(c.TotalReduceSlots())
	if err != nil {
		return nil, err
	}
	return job.splits(c)
}
