package experiments

import (
	"reflect"
	"slices"
	"testing"

	"mrtext/internal/apps"
	"mrtext/internal/mrserve"
)

// catalogueWant pins the catalogue's decisions per application: the
// paper's class preset, the inputs an experiment job reads and the
// datasets a default-size service or mrrun job reads. The service names
// are also where the benchmark's served workload writes its input.
var catalogueWant = []struct {
	app        AppID
	k          int
	s          float64
	expInputs  []string
	specInputs []string
}{
	{WordCount, 3000, 0.01, []string{"corpus.txt"}, []string{"corpus-16mb.txt"}},
	{InvertedIndex, 3000, 0.01, []string{"corpus.txt"}, []string{"corpus-16mb.txt"}},
	{WordPOSTag, 3000, 0.01, []string{"corpus.txt"}, []string{"corpus-16mb.txt"}},
	{AccessLogSum, 10000, 0.1, []string{"uservisits.log"}, []string{"visits-16mb.log"}},
	{AccessLogJoin, 10000, 0.1, []string{"uservisits.log", "rankings.tbl"}, []string{"visits-16mb.log", "rankings.tbl"}},
	{PageRank, 10000, 0.1, []string{"crawl.tsv"}, []string{"crawl.tsv"}},
	{SynText, 3000, 0.01, []string{"corpus.txt"}, []string{"corpus-16mb.txt"}},
}

// TestCatalogue checks that the experiments and the service (and mrrun,
// which builds through the service's Spec) take every application's
// inputs and frequency-buffering preset from the one catalogue.
func TestCatalogue(t *testing.T) {
	if len(catalogueWant) != len(apps.Catalogue) {
		t.Fatalf("catalogue has %d entries, the table pins %d", len(apps.Catalogue), len(catalogueWant))
	}
	for i, w := range catalogueWant {
		if got := apps.Catalogue[i].Display; got != string(w.app) {
			t.Errorf("catalogue entry %d is %q, want %q", i, got, w.app)
		}
	}

	t.Run("InputsAndJobs", func(t *testing.T) {
		env := tinyEnv()
		for _, w := range catalogueWant {
			for _, v := range AllVariants {
				job, err := makeJob(env, w.app, v)
				if err != nil {
					t.Fatalf("%s/%s: %v", w.app, v, err)
				}
				a, _ := apps.Lookup(string(w.app))
				name := a.Job(w.expInputs, apps.Params{}).Name + "-" + string(v)
				if job.Name != name || !slices.Equal(job.Inputs, w.expInputs) {
					t.Errorf("%s/%s: job %q reads %v, want %s reading %v", w.app, v, job.Name, job.Inputs, name, w.expInputs)
				}
				if job.SpillBufferBytes != env.SpillBufferBytes {
					t.Errorf("%s/%s: spill buffer %d, want %d", w.app, v, job.SpillBufferBytes, env.SpillBufferBytes)
				}
				freq := v == FreqOpt || v == Combined
				if (job.FreqBuf != nil) != freq {
					t.Errorf("%s/%s: freqbuf=%v", w.app, v, job.FreqBuf != nil)
				}
				if job.SpillMatcher != (v == SpillOpt || v == Combined) {
					t.Errorf("%s/%s: spillmatcher=%v", w.app, v, job.SpillMatcher)
				}
			}
		}
	})

	t.Run("FreqBufPresetPerClass", func(t *testing.T) {
		env := tinyEnv()
		for _, w := range catalogueWant {
			exp, err := makeJob(env, w.app, FreqOpt)
			if err != nil {
				t.Fatal(err)
			}
			if exp.FreqBuf.K != w.k || exp.FreqBuf.SampleFraction != w.s {
				t.Errorf("%s: experiment freqbuf %+v, want k=%d s=%g", w.app, exp.FreqBuf, w.k, w.s)
			}
			spec := mrserve.Spec{App: string(w.app), FreqBuf: true}
			spec.Normalize()
			if err := spec.Validate(); err != nil {
				t.Fatal(err)
			}
			job, err := spec.BuildJob(2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(job.FreqBuf, exp.FreqBuf) {
				t.Errorf("%s: service freqbuf %+v, experiment %+v", w.app, job.FreqBuf, exp.FreqBuf)
			}
			var names []string
			for _, ds := range spec.Datasets() {
				names = append(names, ds.Name)
			}
			if !slices.Equal(names, w.specInputs) || !slices.Equal(job.Inputs, w.specInputs) {
				t.Errorf("%s: spec datasets %v, job inputs %v, want %v", w.app, names, job.Inputs, w.specInputs)
			}
		}
	})

	t.Run("SetupGeneratesUnion", func(t *testing.T) {
		env := tinyEnv()
		env.Scale = 0.005
		for _, tc := range []struct {
			apps []AppID
			want map[string]bool
		}{
			{[]AppID{WordCount, PageRank}, map[string]bool{"corpus.txt": true, "crawl.tsv": true}},
			{AllApps, map[string]bool{"corpus.txt": true, "uservisits.log": true, "rankings.tbl": true, "crawl.tsv": true}},
		} {
			c, err := setup(env, tc.apps...)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range inputNames {
				if c.FS.Exists(name) != tc.want[name] {
					t.Errorf("setup(%v): %s exists=%v", tc.apps, name, c.FS.Exists(name))
				}
			}
		}
	})

	t.Run("UnknownAppRejected", func(t *testing.T) {
		if _, err := apps.Lookup("terasort"); err == nil {
			t.Error("catalogue lookup accepted an unknown app")
		}
		if _, err := makeJob(tinyEnv(), AppID("terasort"), Baseline); err == nil {
			t.Error("makeJob accepted an unknown app")
		}
		if _, err := setup(tinyEnv(), AppID("terasort")); err == nil {
			t.Error("setup accepted an unknown app")
		}
		spec := mrserve.Spec{App: "terasort"}
		spec.Normalize()
		if err := spec.Validate(); err == nil {
			t.Error("Spec.Validate accepted an unknown app")
		}
		if _, err := spec.BuildJob(2); err == nil || spec.Datasets() != nil {
			t.Error("Spec built a job or datasets for an unknown app")
		}
	})
}
