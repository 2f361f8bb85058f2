package main

import (
	"context"
	"math"
	"sync"

	tklus "repro"
	"repro/internal/baseline"
)

// sameTopK reports whether got matches the oracle's want: the same
// length, the same score at every rank (within float tolerance), and the
// same user at every rank unless the scores tie — the rule the
// repository's own oracle tests apply.
func sameTopK(got, want []tklus.UserResult) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		d := math.Abs(got[i].Score - want[i].Score)
		if d > 1e-9 || (got[i].UID != want[i].UID && d > 1e-12) {
			return false
		}
	}
	return true
}

// scanOracle answers every query with the exhaustive index-free ranker
// (internal/baseline) over the whole corpus, on two goroutines.
func scanOracle(in *inputs) ([][][]tklus.UserResult, error) {
	oracle := baseline.NewScanRanker(in.corpus, in.cfg.Engine.Params)
	oracle.ExactUserDistance = in.cfg.Engine.ExactUserDistance
	out := make([][][]tklus.UserResult, len(in.queries))
	for c, qs := range in.queries {
		out[c] = make([][]tklus.UserResult, len(qs))
		const workers = 2
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(qs); i += workers {
					out[c][i] = oracle.Search(qs[i])
				}
			}(w)
		}
		wg.Wait()
	}
	return out, nil
}

// monolithicOracle answers checkpoint c's queries with a monolithic
// System built over the union corpus as it stands at c: the base plus
// the first cuts[c] stream posts.
func monolithicOracle(in *inputs) ([][][]tklus.UserResult, error) {
	out := make([][][]tklus.UserResult, len(in.queries))
	for c, qs := range in.queries {
		corpus := in.corpus[:len(in.base)+in.cuts[c]]
		sys, err := tklus.Build(corpus, in.cfg)
		if err != nil {
			return nil, err
		}
		out[c] = make([][]tklus.UserResult, len(qs))
		for i, q := range qs {
			res, _, err := sys.Search(context.Background(), q)
			if err != nil {
				return nil, err
			}
			out[c][i] = res
		}
	}
	return out, nil
}
