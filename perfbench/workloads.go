package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	tklus "repro"
	"repro/internal/datagen"
)

// sizing fixes how much work one run of a workload does.
type sizing struct {
	Posts, Users int
	// PerCombo is the number of queries per keyword class and per
	// combination of the workload's other query dimensions, per checkpoint.
	PerCombo int
	// Rounds is how many times the arrangement is set up from the corpus;
	// each set-up is one setup_s sample and is followed by a warm-up and
	// one timed phase.
	Rounds int
	// PassSeconds is how long one pass over the query list takes on the
	// reference host (2 vCPUs). With --seconds it fixes the passes each
	// checkpoint runs, so the work is fixed for a given --seconds.
	PassSeconds float64
	// Warmup is how many queries run untimed after each set-up.
	Warmup int

	// segments-ingest only.
	Batch       int // posts per IngestContext call
	Checkpoints int // stream steps; the query list runs after each
}

// passes is how many times each checkpoint runs the query list.
func (sz sizing) passes(seconds int) int {
	steps := max(1, sz.Checkpoints)
	p := math.Round(float64(seconds) / (float64(sz.Rounds*steps) * sz.PassSeconds))
	return max(1, int(p))
}

// workload is one set of inputs and the arrangement that serves them.
type workload struct {
	name  string
	size  sizing
	small sizing // short inputs for the package's own tests
	// inputs generates the corpus and query list from the seed.
	inputs func(seed int64, sz sizing) (*inputs, error)
	// setup builds the arrangement through the public API; dir is an
	// empty directory it may use for files.
	setup func(in *inputs, dir string) (*arrangement, error)
	// oracle returns the expected top-k for every (checkpoint, query).
	oracle func(in *inputs) ([][][]tklus.UserResult, error)
}

// inputs is everything a run feeds the program, all derived from the seed.
type inputs struct {
	seed   int64
	cfg    tklus.Config
	corpus []*tklus.Post // base followed by stream
	base   []*tklus.Post // what set-up loads
	stream []*tklus.Post // ingested during the timed phase

	// queries[c] is the list the c-th checkpoint runs. Static workloads
	// have one checkpoint; on segments-ingest the windowed queries'
	// windows trail the stream.
	queries [][]tklus.Query
	// cuts[c] is how many stream posts are ingested before checkpoint c.
	cuts []int
	// sealAt / compactAt mark checkpoints that call SealNow / Compact
	// before running their queries.
	sealAt, compactAt map[int]bool
	// radii and windowed describe the query list in the report.
	radii    []float64
	windowed int
}

const topK = 10

var (
	semantics = []tklus.Semantic{tklus.Or, tklus.And}
	rankings  = []tklus.Ranking{tklus.SumScore, tklus.MaxScore}
)

// queryList crosses the paper's 1/2/3-keyword classes (Section VI-B1
// generator) with OR/AND, sum/max ranking, the given radii and, when
// windows is set, with and without a time window, perCombo queries per
// cell, and shuffles the result with the seed. The returned flags mark
// the queries that take a window.
func queryList(c *datagen.Corpus, seed int64, perCombo int, radii []float64, windows bool) ([]tklus.Query, []bool) {
	nWin := 1
	if windows {
		nWin = 2
	}
	combos := len(semantics) * len(rankings) * len(radii) * nWin
	perClass := perCombo * combos
	specs := c.GenerateQueries(seed+1, perClass)
	qs := make([]tklus.Query, len(specs))
	win := make([]bool, len(specs))
	for i, s := range specs {
		j := i % perClass % combos
		qs[i] = tklus.Query{
			Loc:      s.Loc,
			Keywords: s.Keywords,
			K:        topK,
			Semantic: semantics[j%2],
			Ranking:  rankings[j/2%2],
			RadiusKm: radii[j/4%len(radii)],
		}
		win[i] = j/(4*len(radii)) == 1
	}
	rng := rand.New(rand.NewSource(seed + 2))
	rng.Shuffle(len(qs), func(a, b int) {
		qs[a], qs[b] = qs[b], qs[a]
		win[a], win[b] = win[b], win[a]
	})
	return qs, win
}

// config is the paper's default configuration with the given features and
// no simulated I/O latency: every workload measures work, not sleeps, and
// modeled I/O shows only as counts.
func config(opts ...tklus.Option) tklus.Config {
	cfg := tklus.DefaultConfig(opts...)
	cfg.DB.IOLatency = 0
	return cfg
}

func generate(seed int64, sz sizing, mutate func(*datagen.Config)) (*datagen.Corpus, error) {
	gen := datagen.DefaultConfig()
	gen.Seed = seed
	gen.NumPosts = sz.Posts
	gen.NumUsers = sz.Users
	if mutate != nil {
		mutate(&gen)
	}
	return datagen.Generate(gen)
}

// staticInputs builds the inputs of a read-only workload: one checkpoint,
// no stream.
func staticInputs(seed int64, sz sizing, cfg tklus.Config, radii []float64) (*inputs, error) {
	c, err := generate(seed, sz, nil)
	if err != nil {
		return nil, err
	}
	qs, _ := queryList(c, seed, sz.PerCombo, radii, false)
	return &inputs{
		seed: seed, cfg: cfg, corpus: c.Posts, base: c.Posts,
		queries: [][]tklus.Query{qs}, cuts: []int{0},
		radii: radii,
	}, nil
}

// arrangement is one serving arrangement built by a workload's set-up.
// sharded or seg is set on the workloads that have them.
type arrangement struct {
	search  tklus.Searcher
	sharded *tklus.ShardedSystem
	seg     *tklus.SegmentedSystem
	// sys is the System whose metadata database and DFS the layer
	// counters read (shared by every shard on sharded-wide).
	sys *tklus.System
	dir string
}

func (a *arrangement) close() error {
	if a.seg == nil {
		return nil
	}
	err := a.seg.Close()
	if rerr := os.RemoveAll(a.dir); err == nil {
		err = rerr
	}
	return err
}

// monoPaged: the paged metadb B⁺-tree with batched thread expansion and
// block-max on, no popcache or snapshots — what tklus-server serves with
// no flags. Metadb multi-gets and thread construction do most of the work,
// GC is a large share of query CPU, and there is no router and no segment
// store.
var monoPaged = workload{
	name:  "mono-paged",
	size:  sizing{Posts: 100_000, Users: 4_000, PerCombo: 48, Rounds: 7, PassSeconds: 1.6, Warmup: 100},
	small: sizing{Posts: 3_000, Users: 300, PerCombo: 1, Rounds: 2, PassSeconds: 1, Warmup: 5},
	inputs: func(seed int64, sz sizing) (*inputs, error) {
		return staticInputs(seed, sz, config(), []float64{5, 10, 20})
	},
	setup: func(in *inputs, _ string) (*arrangement, error) {
		sys, err := tklus.Build(in.base, in.cfg)
		if err != nil {
			return nil, err
		}
		return &arrangement{search: sys, sys: sys}, nil
	},
	oracle: scanOracle,
}

// shardedWide: four geo-shards with the reply-graph and row-meta
// snapshots at the paper's wide radii (Figs. 8/10). Queries fan out across
// shards, so per-candidate partials and the router merge do much of the
// work, while the snapshots leave B⁺-tree page reads near zero: a metadb
// change should not move this workload, and a merge change should not
// move mono-paged.
var shardedWide = workload{
	name:  "sharded-wide",
	size:  sizing{Posts: 100_000, Users: 4_000, PerCombo: 42, Rounds: 7, PassSeconds: 1.9, Warmup: 50},
	small: sizing{Posts: 3_000, Users: 300, PerCombo: 1, Rounds: 2, PassSeconds: 1, Warmup: 5},
	inputs: func(seed int64, sz sizing) (*inputs, error) {
		cfg := config(tklus.WithReplySnapshot(), tklus.WithRowMetaSnapshot())
		return staticInputs(seed, sz, cfg, []float64{50, 100})
	},
	setup: func(in *inputs, _ string) (*arrangement, error) {
		ss, err := tklus.BuildSharded(in.base, in.cfg, tklus.DefaultShardingConfig())
		if err != nil {
			return nil, err
		}
		return &arrangement{search: ss, sharded: ss, sys: ss.Systems[0]}, nil
	},
	oracle: monolithicOracle,
}

// Segment-store timeline: the corpus spans baseBuckets+streamBuckets
// buckets of bucketWidth plus half a bucket, starting on a bucket
// boundary, so the stream (everything after the base buckets) crosses
// exactly streamBuckets boundaries and seals that many times on its own.
const (
	bucketWidth   = 16 * 24 * time.Hour
	baseBuckets   = 6
	streamBuckets = 4
)

// segmentsIngest: the LSM segment store ingesting a stream beside reads.
// Writes run beside reads on the segment store (memtable, seal, mmap
// reads, window pruning) while the paged metadb and the router do little,
// so a gain for reads that costs ingest, or the reverse, shows up here. No
// WAL is attached; seals and compactions keep their own tmp → fsync →
// rename.
var segmentsIngest = workload{
	name: "segments-ingest",
	size: sizing{Posts: 100_000, Users: 4_000, PerCombo: 12, Rounds: 7, PassSeconds: 0.35, Warmup: 50,
		Batch: 100, Checkpoints: 4},
	small: sizing{Posts: 3_000, Users: 300, PerCombo: 1, Rounds: 2, PassSeconds: 1, Warmup: 5,
		Batch: 50, Checkpoints: 4},
	inputs: segmentsInputs,
	setup: func(in *inputs, dir string) (*arrangement, error) {
		sys, err := tklus.Build(in.base, in.cfg)
		if err != nil {
			return nil, err
		}
		seg, err := tklus.EnableSegments(sys, tklus.SegmentOptions{Dir: dir, BucketWidth: bucketWidth})
		if err != nil {
			return nil, err
		}
		return &arrangement{search: seg, seg: seg, sys: sys, dir: dir}, nil
	},
	oracle: monolithicOracle,
}

func segmentsInputs(seed int64, sz sizing) (*inputs, error) {
	w := bucketWidth.Nanoseconds()
	var start time.Time
	corpus, err := generate(seed, sz, func(g *datagen.Config) {
		start = time.Unix(0, (g.Start.UnixNano()/w+1)*w).UTC()
		g.Start = start
		g.End = start.Add((baseBuckets+streamBuckets)*bucketWidth + bucketWidth/2)
	})
	if err != nil {
		return nil, err
	}
	cut := start.Add(baseBuckets * bucketWidth).UnixNano()
	split := sort.Search(len(corpus.Posts), func(i int) bool { return int64(corpus.Posts[i].SID) >= cut })
	in := &inputs{
		seed:   seed,
		cfg:    config(tklus.WithReplySnapshot()),
		corpus: corpus.Posts, base: corpus.Posts[:split], stream: corpus.Posts[split:],
		sealAt:    map[int]bool{1: true, 3: true},
		compactAt: map[int]bool{2: true, 3: true},
		radii:     []float64{5, 10, 20},
	}
	if len(in.base) == 0 || len(in.stream) == 0 {
		return nil, fmt.Errorf("segments-ingest: corpus of %d posts leaves an empty base or stream", len(corpus.Posts))
	}
	// Each checkpoint runs its own slice of one long shuffled list, so the
	// tail of the latency distribution is drawn from Checkpoints times
	// more distinct queries at the same cost.
	all, allWin := queryList(corpus, seed, sz.PerCombo*sz.Checkpoints, in.radii, true)
	per := len(all) / sz.Checkpoints
	for c := 0; c < sz.Checkpoints; c++ {
		list, win := all[c*per:(c+1)*per], allWin[c*per:(c+1)*per]
		n := len(in.stream) * (c + 1) / sz.Checkpoints
		in.cuts = append(in.cuts, n)
		// A recent window: the last bucket width before the newest
		// ingested post.
		to := in.stream[n-1].Time
		tw := &tklus.TimeWindow{From: to.Add(-bucketWidth), To: to}
		qs := make([]tklus.Query, len(list))
		for i, q := range list {
			if win[i] {
				q.TimeWindow = tw
			}
			qs[i] = q
		}
		in.queries = append(in.queries, qs)
		for _, b := range win {
			if b {
				in.windowed++
			}
		}
	}
	return in, nil
}

var workloads = []*workload{&monoPaged, &shardedWide, &segmentsIngest}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
