package fed

import (
	"testing"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/data"
	"ptffedrec/internal/models"
	"ptffedrec/internal/rng"
)

// benchDisperseTrainer builds a mid-size LightGCN-server trainer with one
// round of real uploads, mirroring the scalability profile's dispersal shape.
func benchDisperseTrainer(b *testing.B) *Trainer {
	b.Helper()
	p := data.Profile{Name: "bench-disperse", NumUsers: 6000, NumItems: 900,
		Interactions: 90000, ZipfExponent: 1.05, Clusters: 8, ClusterBias: 0.7, MinPerUser: 5}
	d := data.Generate(p, 5)
	sp := d.Split(rng.New(1), 0.2)
	cfg := DefaultConfig(models.KindLightGCN)
	cfg.ClientModel = models.KindMF
	cfg.Dim = 16
	cfg.Rounds = 2
	cfg.ClientEpochs = 1
	cfg.ServerEpochs = 1
	tr, err := NewTrainer(sp, cfg)
	if err != nil {
		b.Fatal(err)
	}
	tr.RunRound(0)
	tr.RunRound(1)
	tr.EvaluateServer()
	return tr
}

// BenchmarkDisperse measures one dispersal sweep over every client on a
// warmed server, serially, through the same Server.disperseUsers loop a
// CloseRound worker runs.
func BenchmarkDisperse(b *testing.B) {
	tr := benchDisperseTrainer(b)
	plan := tr.server.buildDispersalPlan()
	ids := allSlots(tr.split.NumUsers)
	// conf+hard consumes no randomness, so the round engine passes no stream;
	// the benchmark mirrors that.
	noStream := func(int) *rng.Stream { return nil }
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		tr.server.disperseUsers(ids, plan, noStream, func(int, []comm.Prediction) {})
	}
}
