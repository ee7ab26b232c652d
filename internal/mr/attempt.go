package mr

import (
	"fmt"
	"time"
)

// Attempt-scoped file naming. Every file a task attempt writes MUST be
// named through one of these helpers (TestPipelinedShuffleMatchesReference
// fails on any file a job creates under another name): attempt files live
// under a per-attempt namespace, which is what lets duplicate attempts of
// one task coexist on a node, makes failed attempts sweepable by name, and
// makes the commit a single rename from the attempt namespace to the
// canonical name.

// attemptDir is the temp namespace of one map-task attempt on its node
// disk: all of the attempt's spill runs and its merged output live under
// it.
func attemptDir(prefix string, task, attempt int) string {
	return fmt.Sprintf("%s/m%05d/a%02d", prefix, task, attempt)
}

// attemptSpillName names one spill run inside an attempt's namespace.
func attemptSpillName(dir string, seq int) string {
	return fmt.Sprintf("%s/spill%04d", dir, seq)
}

// attemptMapOutName names an attempt's merged, uncommitted map output.
func attemptMapOutName(dir string) string {
	return dir + "/out"
}

// canonicalMapOutName is the committed map-output name a winning attempt's
// output is renamed to — the name reducers fetch from.
func canonicalMapOutName(prefix string, task int) string {
	return fmt.Sprintf("%s/m%05d/out", prefix, task)
}

// attemptReduceTempName names a reduce attempt's uncommitted DFS output;
// committing renames it to ReduceOutputName, and the DFS's fail-on-exist
// rename makes the first committer win across nodes.
func attemptReduceTempName(outputPrefix string, part, attempt int) string {
	return fmt.Sprintf("%s.a%02d.tmp", ReduceOutputName(outputPrefix, part), attempt)
}

// mix64 is a splitmix64-style finalizer used for deterministic jitter.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// backoffFor returns the retry delay before requeueing (task, attempt):
// retryBackoff scaled by a deterministic factor in [0.5, 1.5), so
// simultaneous failures spread their retries without a randomness source.
func backoffFor(task, attempt int) time.Duration {
	h := mix64(uint64(task)<<20 | uint64(attempt))
	frac := float64(h>>11) / (1 << 53)
	return time.Duration(float64(retryBackoff) * (0.5 + frac))
}
