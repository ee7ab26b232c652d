package experiments

import (
	"bufio"
	"bytes"
	"io"

	"mrtext/internal/core/topk"
	"mrtext/internal/core/zipfest"
	"mrtext/internal/textgen"
)

// Fig3Result is the rank-frequency data of the generated corpus plus the
// Zipf fit — the reproduction of Fig. 3 (word frequencies of the paper's
// Wikipedia corpus follow Zipf's law).
type Fig3Result struct {
	TotalWords    int64
	DistinctWords int
	// Points are (rank, frequency) samples at logarithmically spaced ranks.
	Points []struct {
		Rank int64
		Freq uint64
	}
	// Alpha is the fitted Zipf exponent; R2 its goodness of fit.
	Alpha, R2 float64
}

// RunFig3 generates the corpus, counts word frequencies exactly, and fits
// the Zipf parameter — verifying the generated corpus reproduces the
// rank-frequency shape of Fig. 3.
func RunFig3(env Env) (*Fig3Result, error) {
	env = env.withDefaults()
	cfg := textgen.CorpusConfig{Vocabulary: defVocabulary, Alpha: 1.0, WordsPerLine: 10, Seed: env.Seed + 10}

	pr, pw := io.Pipe()
	go func() {
		_, err := textgen.Corpus(pw, cfg, env.corpusBytes())
		//mrlint:ignore droppederr io.PipeWriter.CloseWithError is documented to always return nil
		pw.CloseWithError(err)
	}()

	exact := topk.NewExact()
	var total int64
	sc := bufio.NewScanner(pr)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		for _, w := range bytes.Fields(sc.Bytes()) {
			exact.OfferBytes(w)
			total++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	counts := exact.RankedCounts()
	fit, err := zipfest.EstimateAlpha(counts)
	if err != nil {
		return nil, err
	}
	out := &Fig3Result{
		TotalWords:    total,
		DistinctWords: len(counts),
		Alpha:         fit.Alpha,
		R2:            fit.R2,
	}
	// Log-spaced rank samples.
	for rank := int64(1); rank <= int64(len(counts)); rank *= 2 {
		out.Points = append(out.Points, struct {
			Rank int64
			Freq uint64
		}{rank, counts[rank-1]})
	}

	env.printf("\nFig. 3 — corpus word rank-frequency (Zipf)\n")
	env.printf("total words: %d, distinct: %d, fitted alpha: %.3f (R²=%.3f)\n",
		out.TotalWords, out.DistinctWords, out.Alpha, out.R2)
	env.printf("%-10s %12s\n", "rank", "frequency")
	for _, p := range out.Points {
		env.printf("%-10d %12d\n", p.Rank, p.Freq)
	}
	return out, nil
}
