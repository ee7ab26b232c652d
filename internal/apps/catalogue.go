package apps

import (
	"fmt"
	"io"

	"mrtext/internal/mr"
	"mrtext/internal/textgen"
)

// Class is an application class of the paper's evaluation. Each class has
// one frequency-buffering setting (§V-B2).
type Class int

const (
	// Text is the text-centric class: k=3000, s=0.01.
	Text Class = iota
	// Log is the log and graph class: k=10000, s=0.1.
	Log
)

// FreqBuf returns a fresh copy of the class's paper frequency-buffering
// setting.
func (c Class) FreqBuf() *mr.FreqBufConfig {
	if c == Log {
		return mr.DefaultFreqBufLog()
	}
	return mr.DefaultFreqBufText()
}

// Input is a kind of generated dataset an application reads.
type Input int

const (
	Corpus   Input = iota // a Zipfian text corpus
	Visits                // a UserVisits access log
	Rankings              // the Rankings table of the log's URLs
	Graph                 // a web crawl, one page per line
)

// Data sizes and seeds every input kind. A harness keeps its own: the
// service generates the laptop-scale defaults, the experiments scale them.
type Data struct {
	Corpus      textgen.CorpusConfig
	CorpusBytes int64
	Log         textgen.LogConfig // Visits and Rankings
	VisitBytes  int64
	Graph       textgen.GraphConfig
}

// Generate writes one dataset of kind in, sized and seeded by d, to w.
func (in Input) Generate(w io.Writer, d Data) error {
	var err error
	switch in {
	case Corpus:
		_, err = textgen.Corpus(w, d.Corpus, d.CorpusBytes)
	case Visits:
		_, err = textgen.UserVisits(w, d.Log, d.VisitBytes)
	case Rankings:
		_, err = textgen.Rankings(w, d.Log)
	case Graph:
		_, err = textgen.WebGraph(w, d.Graph)
	default:
		err = fmt.Errorf("apps: unknown input kind %d", in)
	}
	return err
}

// Params carries the few settings an application takes beside its inputs.
// Each constructor reads only its own.
type Params struct {
	Pages         int64 // PageRank: the crawl's page count
	POSIterations int   // WordPOSTag: tagger iterations (0 = default)
	SynText       SynTextConfig
}

// App is one catalogue entry: everything a harness needs to run an
// application without knowing which one it is.
type App struct {
	// Name is the app's name for mrrun and in an mrserve spec ("wordcount").
	Name string
	// Display is the paper's name, by which the experiments and the Go
	// benchmarks refer to the app and which their tables print.
	Display string
	// Class picks the paper's frequency-buffering setting.
	Class Class
	// Inputs are the dataset kinds the job reads, in Job.Inputs order.
	Inputs []Input
	build  func(inputs []string, p Params) *mr.Job
}

// Job builds the application's job over inputs, one DFS name per entry of
// Inputs.
func (a *App) Job(inputs []string, p Params) *mr.Job { return a.build(inputs, p) }

// Catalogue lists every application: the six of §II-B in the paper's
// presentation order, then SynText.
var Catalogue = []App{
	{"wordcount", "WordCount", Text, []Input{Corpus}, func(in []string, _ Params) *mr.Job { return WordCount(in...) }},
	{"invertedindex", "InvertedIndex", Text, []Input{Corpus}, func(in []string, _ Params) *mr.Job { return InvertedIndex(in...) }},
	{"wordpostag", "WordPOSTag", Text, []Input{Corpus}, func(in []string, p Params) *mr.Job { return WordPOSTag(p.POSIterations, in...) }},
	{"accesslogsum", "AccessLogSum", Log, []Input{Visits}, func(in []string, _ Params) *mr.Job { return AccessLogSum(in[0]) }},
	{"accesslogjoin", "AccessLogJoin", Log, []Input{Visits, Rankings}, func(in []string, _ Params) *mr.Job { return AccessLogJoin(in[0], in[1]) }},
	{"pagerank", "PageRank", Log, []Input{Graph}, func(in []string, p Params) *mr.Job { return PageRank(in[0], p.Pages) }},
	{"syntext", "SynText", Text, []Input{Corpus}, func(in []string, p Params) *mr.Job { return SynText(p.SynText, in...) }},
}

// Lookup returns the entry whose Name or Display is name.
func Lookup(name string) (*App, error) {
	for i := range Catalogue {
		if a := &Catalogue[i]; a.Name == name || a.Display == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("apps: unknown app %q", name)
}
