package models

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ptffedrec/internal/emb"
	"ptffedrec/internal/nn"
	"ptffedrec/internal/persist"
	"ptffedrec/internal/rng"
)

// trainedModel builds a model of the given kind, trains it briefly, and
// returns it.
func trainedModel(t *testing.T, kind Kind, seed uint64) Recommender {
	t.Helper()
	cfg := smallConfig()
	cfg.Seed = seed
	m, err := New(kind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gm, ok := m.(GraphRecommender); ok {
		gm.SetGraph(smallGraph(cfg))
	}
	for i := 0; i < 20; i++ {
		m.TrainBatch(smallBatch())
	}
	return m
}

// TestSnapshotRestoreAllModels round-trips the one model that checkpoints,
// LightGCN: restored into a model built from another seed, it scores every
// pair as the source does.
func TestSnapshotRestoreAllModels(t *testing.T) {
	src := trainedModel(t, KindLightGCN, 1)
	dst := trainedModel(t, KindLightGCN, 99)
	if err := dst.(Snapshotter).Restore(bytes.NewReader(snapshotBytes(t, src))); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 4; u++ {
		for v := 0; v < 6; v++ {
			a, b := score(src, u, v), score(dst, u, v)
			if math.Abs(a-b) > 1e-12 {
				t.Fatalf("score(%d,%d) %v != %v after restore", u, v, a, b)
			}
		}
	}
}

// TestRestoreRejectsWrongKind restores a snapshot header whose kind tag
// names another model into a LightGCN: the header is refused.
func TestRestoreRejectsWrongKind(t *testing.T) {
	var buf bytes.Buffer
	if err := writeHeader(&buf, KindNGCF); err != nil {
		t.Fatal(err)
	}
	err := trainedModel(t, KindLightGCN, 2).(Snapshotter).Restore(&buf)
	if err == nil || !strings.Contains(err.Error(), "kind mismatch") {
		t.Fatalf("LightGCN restored a snapshot tagged %s: error %v", KindNGCF, err)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	dst := trainedModel(t, KindLightGCN, 3)
	if err := dst.(Snapshotter).Restore(bytes.NewBufferString("not a snapshot")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestRestoreRejectsTruncated(t *testing.T) {
	snap := snapshotBytes(t, trainedModel(t, KindLightGCN, 4))
	for _, n := range []int{len(snap) / 2, len(snap) - 1} {
		dst := trainedModel(t, KindLightGCN, 5)
		if err := dst.(Snapshotter).Restore(bytes.NewReader(snap[:n])); err == nil {
			t.Fatalf("snapshot truncated to %d of %d bytes accepted", n, len(snap))
		}
	}
}

// TestRestoreRefusesHugeTagPrefix feeds Restore a header whose magic claims
// 2³⁰ bytes: the length prefix is refused before anything it sizes is
// allocated, so the call errors having allocated under 1 MiB.
func TestRestoreRefusesHugeTagPrefix(t *testing.T) {
	var buf bytes.Buffer
	if err := persist.WriteUint64(&buf, 1<<30); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(snapshotMagic)
	dst := trainedModel(t, KindLightGCN, 6).(Snapshotter)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := dst.Restore(&buf)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 2³⁰-byte magic prefix accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("refusing a 2³⁰-byte magic prefix allocated %d bytes, want < 1 MiB", got)
	}
}

// TestCheckpointResumeExact pins the V2 format's reason to exist: training k
// more batches after a restore must be bitwise-identical to never having
// checkpointed, because the Adam moment state travels with the weights.
func TestCheckpointResumeExact(t *testing.T) {
	cfg := smallConfig()
	a := NewLightGCN(cfg, rng.New(cfg.Seed))
	a.SetGraph(smallGraph(cfg))
	for i := 0; i < 7; i++ {
		a.TrainBatch(smallBatch())
	}
	b := NewLightGCN(cfg, rng.New(cfg.Seed+1))
	b.SetGraph(smallGraph(cfg))
	if err := b.Restore(bytes.NewReader(snapshotBytes(t, a))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if la, lb := a.TrainBatch(smallBatch()), b.TrainBatch(smallBatch()); la != lb {
			t.Fatalf("post-resume batch %d loss %v != %v", i, la, lb)
		}
	}
	for u := 0; u < cfg.NumUsers; u++ {
		for v := 0; v < cfg.NumItems; v++ {
			if sa, sb := score(a, u, v), score(b, u, v); sa != sb {
				t.Fatalf("score(%d,%d) diverged after resume: %v != %v", u, v, sa, sb)
			}
		}
	}
}

// TestSnapshotDigestPinned pins the state of seeded NeuMF (dense and lazy
// tables), NGCF and LightGCN models, untrained and after three TrainBatch
// calls, to fixed SHA-256 digests (stateDigest: LightGCN's is of its Snapshot
// bytes), so a change to the weights Adam moves, to the moments or step
// counts, or to LightGCN's snapshot layout fails here.
func TestSnapshotDigestPinned(t *testing.T) {
	for _, c := range []struct {
		kind    Kind
		lazy    bool
		batches int
		want    string
	}{
		{KindNeuMF, false, 0, "46931c94b63998039ac879c1ce1b077012f0ec1aa4c5de1e8566bc0b51ae98db"},
		{KindNeuMF, false, 3, "049720246c4804a429fc0fc90ea503b2c5bd1437cd4fb1425f760d35f13ba93d"},
		{KindNeuMF, true, 0, "fd7d60be596dfcb4d5dd9fe0cd5d4151e553a9da2840e9caa67fcda6b442e0ec"},
		{KindNeuMF, true, 3, "64ff2bf0d84a0788a9a6d3cc4048e2e9a62fd8948a0d42c2552ab3e6afd60cc2"},
		{KindNGCF, false, 0, "b471245521504f7927eb92a7299f8af8deec4fb03ea04d7f7df8a456fd40564b"},
		{KindNGCF, false, 3, "8bd65df4fdb1db3a3dd085b2ada8af0045f63b1f9a7f9e0673667afa522500f8"},
		{KindLightGCN, false, 0, "9068bf5dc1847456e2884dd361711a181ab7f32de81b9f18c49301a38948515e"},
		{KindLightGCN, false, 3, "d657ba1ef230bbfcf0f53ff3d446e744d64e4e407662201b0780948470e69ca3"},
	} {
		cfg := smallConfig()
		cfg.Lazy = c.lazy
		m, err := New(c.kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if gm, ok := m.(GraphRecommender); ok {
			gm.SetGraph(smallGraph(cfg))
		}
		for range c.batches {
			m.TrainBatch(smallBatch())
		}
		if got := stateDigest(t, m); got != c.want {
			t.Errorf("%s lazy=%v after %d batches: state digest %s, want %s", c.kind, c.lazy, c.batches, got, c.want)
		}
	}
}

// TestRestoreRejectsV1Snapshots pins the retirement of the weights-only V1
// format: a V1 header is refused with an error that names the V2 magic
// Restore expects.
func TestRestoreRejectsV1Snapshots(t *testing.T) {
	var buf bytes.Buffer
	if err := persist.WriteString(&buf, "PTFREC-MODEL-V1"); err != nil {
		t.Fatal(err)
	}
	if err := persist.WriteString(&buf, string(KindLightGCN)); err != nil {
		t.Fatal(err)
	}
	err := trainedModel(t, KindLightGCN, 1).(Snapshotter).Restore(&buf)
	if err == nil || !strings.Contains(err.Error(), snapshotMagic) {
		t.Fatalf("V1 restore: got error %v, want one naming %q", err, snapshotMagic)
	}
}

// snapshotBytes returns a Snapshotter's snapshot.
func snapshotBytes(t *testing.T, m Recommender) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.(Snapshotter).Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stateDigest returns the SHA-256 of everything a model carries from one
// batch to the next. MF, NeuMF and NGCF hash their embedding tables and
// dense parameters; LightGCN, the one Snapshotter, hashes its Snapshot bytes.
func stateDigest(t *testing.T, m Recommender) string {
	t.Helper()
	h := sha256.New()
	switch m := m.(type) {
	case *MF:
		hashTable(h, m.users)
		hashTable(h, m.items)
	case *NeuMF:
		hashTable(h, m.users)
		hashTable(h, m.items)
		hashParams(h, m.params)
	case *NGCF:
		hashParams(h, m.params)
	case Snapshotter:
		if err := m.Snapshot(h); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("no state digest for %T", m)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashTable writes a table's whole state: a dense table's slab (its weights
// and both Adam moments) or a lazy table's float32 pages, by slot, then each
// slot's step count and a lazy table's ids. emb keeps them unexported, so
// they are read through reflection.
func hashTable(h hash.Hash, tab *emb.Table) {
	v := reflect.ValueOf(tab).Elem()
	if dense := v.FieldByName("dense"); !dense.IsNil() {
		hashSlice(h, dense, func(x reflect.Value) uint64 { return math.Float64bits(x.Float()) })
	}
	pages := v.FieldByName("pages")
	for k := range pages.Len() {
		hashSlice(h, pages.Index(k), func(x reflect.Value) uint64 { return uint64(math.Float32bits(float32(x.Float()))) })
	}
	for _, f := range []string{"steps", "ids"} {
		hashSlice(h, v.FieldByName(f), func(x reflect.Value) uint64 { return uint64(x.Int()) })
	}
}

// hashParams writes each parameter's weights, both moments and step count.
func hashParams(h hash.Hash, params []*nn.Param) {
	for _, p := range params {
		for _, xs := range [][]float64{p.W.Data, p.M.Data, p.V.Data} {
			hashSlice(h, reflect.ValueOf(xs), func(x reflect.Value) uint64 { return math.Float64bits(x.Float()) })
		}
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(p.T)))
	}
}

// hashSlice writes s's length, then bits(e) for each element e.
func hashSlice(h hash.Hash, s reflect.Value, bits func(reflect.Value) uint64) {
	buf := binary.LittleEndian.AppendUint64(nil, uint64(s.Len()))
	for i := range s.Len() {
		buf = binary.LittleEndian.AppendUint64(buf, bits(s.Index(i)))
	}
	h.Write(buf)
}
