package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"ptffedrec/internal/candset"
	"ptffedrec/internal/comm"
	"ptffedrec/internal/graph"
	"ptffedrec/internal/metrics"
	"ptffedrec/internal/models"
	"ptffedrec/internal/privacy"
	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// Probe shapes: a 16-user × 1024-item score block is what the evaluator and
// the dispersal engine issue per kernel call.
const (
	probeUsers = 16
	probeItems = 1024
)

// sample times fn call by call: at least minSamples calls, then until budget
// has elapsed or maxSamples calls are in. The first call is a discarded
// warm-up (buffers grow, caches fill).
func sample(budget time.Duration, fn func()) []float64 {
	const minSamples, maxSamples = 11, 400
	fn()
	out := make([]float64, 0, minSamples)
	deadline := time.Now().Add(budget)
	for len(out) < minSamples || (len(out) < maxSamples && time.Now().Before(deadline)) {
		start := time.Now()
		fn()
		out = append(out, time.Since(start).Seconds())
	}
	return out
}

// runProbes times each layer's exported kernels in isolation, at the
// workload's shapes and on the state the traced run left behind.
func runProbes(res *result, wd *world, tr *tracedRun, procs int, probeBudget time.Duration) error {
	cfg := wd.cfg
	numUsers, numItems := wd.split.NumUsers, wd.split.NumItems
	sv := tr.engine.Server()
	model := sv.Model()
	s := rng.New(cfg.Seed).Derive("bench-probes")

	// eval: three warm ranking passes over the panel on the trained model.
	var ranks []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if r := tr.engine.Evaluate(wd.ev); !sameResult(r, tr.final) {
			return fmt.Errorf("probe: ranking pass %d differs from the final evaluation", i)
		}
		ranks = append(ranks, time.Since(start).Seconds())
	}
	res.setTiming("eval.rank_s", ranks)

	// persist: the future checkpoint stall.
	var sink countingWriter
	res.setTiming("persist.snapshot_s", sample(probeBudget, func() {
		sink = 0
		if err := sv.Snapshot(&sink); err != nil {
			panic(err) // a counting sink cannot fail
		}
	}))
	res.set("persist.snapshot_mb", mib(int64(sink)))

	// models, scoring side: one user-block logit GEMM.
	mbs, ok := model.(models.MultiBlockScorer)
	if !ok {
		return fmt.Errorf("probe: server model %s has no multi-user scoring", model.Name())
	}
	users, items := firstN(min(probeUsers, numUsers)), firstN(min(probeItems, numItems))
	block := tensor.New(len(users), len(items))
	res.setTiming("models.score_users_block_s", sample(probeBudget, func() {
		mbs.ScoreUsersBlockLogitsInto(block, users, items)
	}))

	// The last cohort's uploads, users ascending: the server batch, the
	// graph delta and the codec payload all come from them.
	cohortUsers := append([]int(nil), tr.lastCohort...)
	sort.Ints(cohortUsers)
	var batch []models.Sample
	for _, u := range cohortUsers {
		for _, p := range tr.latest[u] {
			if len(batch) < cfg.ServerBatch {
				batch = append(batch, models.Sample{User: p.User, Item: p.Item, Label: p.Score})
			}
		}
	}

	// models, training side: one server TrainBatch, then the warm-up the next
	// scoring call pays. This mutates the model, so every comparison against
	// the trained state happens above.
	warmer, _ := model.(models.Warmer)
	var warms []float64
	var ms0, ms1 runtime.MemStats
	calls := 0
	runtime.ReadMemStats(&ms0)
	trains := sample(4*probeBudget, func() {
		model.TrainBatch(batch)
		calls++
	})
	runtime.ReadMemStats(&ms1)
	res.setTiming("models.train_batch_s", trains)
	res.set("models.train_batch_allocs", float64(ms1.Mallocs-ms0.Mallocs)/float64(calls))
	res.set("models.train_batch_alloc_kb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(calls))
	for i := 0; i < 11 && warmer != nil; i++ {
		model.TrainBatch(batch)
		start := time.Now()
		warmer.WarmScoring()
		warms = append(warms, time.Since(start).Seconds())
	}
	res.setTiming("models.warm_s", warms)

	// models, client side: one local TrainBatch on a fresh client-kind model.
	client, err := models.New(cfg.ClientModel, models.Config{NumUsers: 1, NumItems: numItems,
		Dim: cfg.Dim, LR: cfg.LR, Layers: cfg.Layers, Lazy: true, Seed: cfg.Seed})
	if err != nil {
		return err
	}
	clientBatch := make([]models.Sample, cfg.ClientBatch)
	for i := range clientBatch {
		clientBatch[i] = models.Sample{Item: s.Intn(numItems), Label: float64(i % 2)}
	}
	res.setTiming("models.client_train_batch_s", sample(probeBudget, func() { client.TrainBatch(clientBatch) }))

	// graph: a standalone incremental engine at the workload's population,
	// brought to the server's view (every participant's latest upload), then
	// timed re-committing the last cohort's delta and assembling the operator.
	inc := graph.NewIncremental(numUsers, numItems)
	everyone := make([]int, 0, len(tr.latest))
	for u := range tr.latest {
		everyone = append(everyone, u)
	}
	sort.Ints(everyone)
	edges := stageUsers(inc, everyone, tr.latest, cfg.GraphThreshold)
	inc.Commit(procs)
	var adj *tensor.CSR
	res.setTiming("graph.commit_s", sample(probeBudget, func() {
		stageUsers(inc, cohortUsers, tr.latest, cfg.GraphThreshold)
		inc.Commit(procs)
	}))
	res.setTiming("graph.adj_into_s", sample(probeBudget, func() { adj = inc.AdjInto(adj, procs) }))
	res.set("graph.engine_mb", mib(inc.MemoryBytes()))
	res.set("graph.edges", float64(edges))

	// tensor: one propagation step, and the scoring GEMM on raw tables.
	n := numUsers + numItems
	x, y := randMatrix(s, n, cfg.Dim), tensor.New(n, cfg.Dim)
	res.setTiming("tensor.spmm_s", sample(probeBudget, func() { adj.MulDenseInto(y, x) }))
	res.set("tensor.spmm_nnz", float64(adj.NNZ()))
	res.setTiming("tensor.gather_gemm_s", sample(probeBudget, func() {
		tensor.GatherMulMatInto(block, x, users, 0, x, items, numUsers)
	}))

	// metrics: the dispersal's top-k over the catalogue and the evaluator's
	// logit-domain selection.
	scores := make([]float64, numItems)
	for i := range scores {
		scores[i] = s.Normal(0, 1)
	}
	var top []int
	res.setTiming("metrics.topk_s", sample(probeBudget, func() { top = metrics.TopKInto(top, scores, max(1, cfg.Alpha/2)) }))
	var sel metrics.LogitTopKSelector
	res.setTiming("metrics.logit_select_s", sample(probeBudget, func() {
		sel.Reset(cfg.EvalK)
		for i, v := range scores {
			sel.Push(i, v)
		}
		top = sel.Into(top)
	}))

	// candset / privacy / comm at a median-length profile.
	u := medianProfileUser(wd.split.Train)
	positives := wd.split.Train[u]
	var cands []int32
	res.setTiming("candset.complement_s", sample(probeBudget, func() {
		cands = candset.AppendComplementSorted(cands[:0], numItems, positives)
	}))
	negatives := wd.split.SampleNegativesN(s.Derive("negs"), u, len(positives)*cfg.NegRatio)
	isPositive := func(v int) bool {
		i := sort.SearchInts(positives, v)
		return i < len(positives) && positives[i] == v
	}
	var upload []comm.Prediction
	res.setTiming("privacy.upload_build_s", sample(probeBudget, func() {
		selPos, selNeg, _, _ := privacy.SampleUpload(s, positives, negatives, cfg.Privacy)
		upload = upload[:0]
		for _, v := range selPos {
			upload = append(upload, comm.Prediction{User: u, Item: v, Score: s.Float64()})
		}
		for _, v := range selNeg {
			upload = append(upload, comm.Prediction{User: u, Item: v, Score: s.Float64()})
		}
		privacy.Swap(s, upload, isPositive, cfg.Privacy.Lambda)
	}))

	codec := comm.CodecFor(cfg.QuantizeScores)
	preds := tr.latest[cohortUsers[len(cohortUsers)/2]]
	var payload []byte
	res.setTiming("comm.encode_s", sample(probeBudget, func() { payload = codec.Encode(preds) }))
	res.setTiming("comm.decode_s", sample(probeBudget, func() {
		if _, err := codec.Decode(payload); err != nil {
			panic(err) // decoding our own encoding cannot fail
		}
	}))
	res.set("comm.bytes_per_prediction", float64(len(payload))/float64(len(preds)))
	frame := make([]byte, 64<<10)
	var buf bytes.Buffer
	res.setTiming("comm.frame_rw_s", sample(probeBudget, func() {
		buf.Reset()
		if _, err := comm.WriteFrame(&buf, comm.MsgUploadChunk, frame); err != nil {
			panic(err) // a bytes.Buffer cannot fail
		}
		if _, _, err := comm.ReadFrame(&buf); err != nil {
			panic(err)
		}
	}))
	return nil
}

// stageUsers stages each listed user's soft-positive edges (the server's
// threshold rule) as one delta and returns the edge count.
func stageUsers(inc *graph.Incremental, users []int, uploads map[int][]comm.Prediction, threshold float64) int {
	inc.Begin()
	var row []graph.Edge
	total := 0
	for _, u := range users {
		row = row[:0]
		for _, p := range uploads[u] {
			if p.Score >= threshold {
				row = append(row, graph.Edge{User: u, Item: p.Item, Weight: p.Score})
			}
		}
		inc.StageUser(u, row)
		total += len(row)
	}
	return total
}

func firstN(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func randMatrix(s *rng.Stream, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := 0; i < rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = s.Normal(0, 0.1)
		}
	}
	return m
}

// medianProfileUser returns a user whose training profile has the median
// length among the first few thousand users.
func medianProfileUser(train [][]int) int {
	n := min(len(train), 4096)
	order := firstN(n)
	sort.Slice(order, func(a, b int) bool {
		la, lb := len(train[order[a]]), len(train[order[b]])
		if la != lb {
			return la < lb
		}
		return order[a] < order[b]
	})
	return order[n/2]
}

// countingWriter counts the bytes written to it.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
