package fed

import (
	"testing"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/data"
	"ptffedrec/internal/models"
	"ptffedrec/internal/rng"
)

// benchDisperseTrainer builds a mid-size LightGCN-server trainer with two
// rounds of real uploads, mirroring the scalability profile's dispersal
// shape, and returns the last round's uploads indexed by user.
func benchDisperseTrainer(b *testing.B) (*Trainer, [][]comm.Prediction) {
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
	uploads := runRoundUploads(tr, 1)
	tr.EvaluateServer()
	return tr, uploads
}

// BenchmarkDisperse measures one dispersal sweep over every client on a
// warmed server, serially, through the same Server.disperseUsers loop a
// CloseRound worker runs — once per Table VII arm, on one trained server
// (the arm only decides how D̃ᵢ is picked from it). Streams are derived as
// CloseRound derives them: per client for the arms that draw, none for
// conf+hard.
func BenchmarkDisperse(b *testing.B) {
	tr, uploads := benchDisperseTrainer(b)
	ids := allSlots(tr.split.NumUsers)
	root := rng.New(1).Derive("bench-disperse")
	for _, arm := range []DisperseMode{DisperseConfHard, DisperseNoHard, DisperseNoConf, DisperseAllRandom} {
		b.Run(string(arm), func(b *testing.B) {
			tr.Server().cfg.Disperse = arm
			plan := tr.Server().buildDispersalPlan()
			stream := func(int) *rng.Stream { return nil }
			if disperseNeedsStreams(tr.Server().cfg) {
				stream = func(id int) *rng.Stream { return root.DeriveN("client", id) }
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				tr.Server().disperseUsers(ids, uploads, plan, stream, func(int, []comm.Prediction) {})
			}
		})
	}
}
