package mrtext_test

import (
	"fmt"
	"log"

	"mrtext"
)

// ExampleRun shows the complete optimized WordCount flow: build a cluster,
// generate a corpus, switch on both paper optimizations, run, and inspect
// the cost breakdown. (Not executed by `go test`: timings are machine-
// dependent.)
func ExampleRun() {
	c, err := mrtext.NewCluster(mrtext.LocalSmallCluster())
	if err != nil {
		log.Fatal(err)
	}
	if err := mrtext.GenerateCorpus(c, "corpus.txt", mrtext.DefaultCorpus(), 16<<20); err != nil {
		log.Fatal(err)
	}

	job := mrtext.WordCount("corpus.txt")
	job.FreqBuf = mrtext.FreqBufText() // §III frequency-buffering
	job.SpillMatcher = true            // §IV spill-matcher

	res, err := mrtext.Run(c, job)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Wall, res.MapTasks, res.ReduceTasks)
	fmt.Print(res.Agg.Breakdown())
}

// ExampleJob_customMapper shows a fully user-defined job: any map/combine/
// reduce over line-oriented input, with the optimizations applied without
// touching the user code — the paper's central usability claim.
func ExampleJob_customMapper() {
	c, err := mrtext.NewCluster(mrtext.FastCluster(2))
	if err != nil {
		log.Fatal(err)
	}
	if err := c.FS.WriteFile("in.txt", []byte("x xy xyz\nxy x\n")); err != nil {
		log.Fatal(err)
	}

	job := &mrtext.Job{
		Name:   "line-lengths",
		Inputs: []string{"in.txt"},
		NewMapper: func() mrtext.Mapper {
			return mrtext.MapperFunc(func(off int64, line []byte, out mrtext.Collector) error {
				return out.Collect([]byte(fmt.Sprint(len(line))), []byte("1"))
			})
		},
		NewReducer: func() mrtext.Reducer {
			return mrtext.ReducerFunc(func(key []byte, vals mrtext.ValueIter, out mrtext.Collector) error {
				n := 0
				for {
					_, ok, err := vals.Next()
					if err != nil {
						return err
					}
					if !ok {
						break
					}
					n++
				}
				return out.Collect(key, []byte(fmt.Sprint(n)))
			})
		},
		Format: func(dst, k, v []byte) ([]byte, error) {
			return fmt.Appendf(dst, "%s=%s\n", k, v), nil
		},
	}
	job.SpillMatcher = true // works on any job, no code changes

	if _, err := mrtext.Run(c, job); err != nil {
		log.Fatal(err)
	}
}
