package mrserve

import (
	"bytes"
	"testing"
)

// FuzzSubmitDecode: arbitrary bodies through the path every POST /jobs
// body takes before it is queued — decodeSubmit, then Normalize, Validate
// and BuildJob. Nothing on it may panic, and a spec it accepts builds a
// job within the caps on the fields that size allocations.
func FuzzSubmitDecode(f *testing.F) {
	for _, seed := range []string{
		`{"tenant":"a","spec":{"app":"wordcount","input_mb":1}}`,
		`{"tenant":"b","spec":{"app":"invertedindex","reducers":4096,"spill_buffer_kb":1048576,"freqbuf":true,"spillmatcher":true,"speculation":true,"chaos":{"seed":3,"fail_rate":0.5,"delay_rate":1}}}`,
		`{"tenant":"a","spec":{"app":" WordPOSTag ","pos_iterations":-3,"input_mb":-1}}`,
		`{"tenant":"a","spec":{"app":"syntext","syntext_cpu":9,"syntext_storage":1}}`,
		`{"tenant":"a","spec":{"app":"wordcount","reducers":4097}}`,
		`{"tenant":"a","spec":{"app":"wordcount","reducers":-1}}`,
		`{"tenant":"a","spec":{"app":"wordcount","input_mb":1048577}}`,
		`{"tenant":"a","spec":{"app":"wordcount","chaos":{"fail_rate":2}}}`,
		`{"tenant":"a","spec":{"app":"nope"}}`,
		`{"tenant":"a","spec":{"app":"wordcount","bogus":1}}`,
		`{"tenant":"a","spec":{"app":"wordcount"}} {}`,
		`{"tenant":"a","spec":{"app":"wordcount","reducers":1e400}}`,
		`null`, `[]`, `{`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeSubmit(bytes.NewReader(body))
		if err != nil {
			return
		}
		spec := req.Spec
		spec.Normalize()
		if spec.Validate() != nil {
			return
		}
		job, err := spec.BuildJob(4)
		if err != nil {
			return
		}
		if in := spec.EstimatedInputBytes(); in <= 0 || in > 1<<40 {
			t.Errorf("accepted a spec of %d input bytes", in)
		}
		for _, c := range []struct {
			name   string
			v, max int64
		}{
			{"reducers", int64(job.NumReducers), maxReducers},
			{"spill buffer", job.SpillBufferBytes, maxSpillBufferKB << 10},
		} {
			if c.v < 0 || c.v > c.max {
				t.Errorf("accepted a spec whose job has %s %d, outside [0, %d]", c.name, c.v, c.max)
			}
		}
	})
}
