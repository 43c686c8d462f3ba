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

// BenchmarkDisperse measures one dispersal phase over every client on a
// warmed server, serially, as CloseRound runs it (RoundEngine.disperse: the
// plan, each client's stream where the arm draws, Server.disperseUsers, and
// the emit that rounds each D̃ᵢ's scores into the Dispersal slice) — once
// per Table VII arm, on one trained server (the arm only decides how D̃ᵢ is
// picked from it).
func BenchmarkDisperse(b *testing.B) {
	tr, uploads := benchDisperseTrainer(b)
	ids := allSlots(tr.split.NumUsers)
	for _, arm := range []DisperseMode{DisperseConfHard, DisperseNoHard, DisperseNoConf, DisperseAllRandom} {
		b.Run(string(arm), func(b *testing.B) {
			tr.Server().cfg.Disperse = arm
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				tr.engine.disperse(1, ids, uploads, 1)
			}
		})
	}
}
