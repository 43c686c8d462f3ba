// Package fed implements PTF-FedRec (Algorithm 1 of the paper): the
// parameter transmission-free federated learning protocol in which clients
// and the central server exchange prediction scores instead of model
// parameters.
//
// Per global round t:
//
//  1. a fraction of clients Uᵗ is selected;
//  2. each selected client trains its local model on Dᵢ ∪ D̃ᵢ (its private
//     interactions plus the server's soft labels, Eq. 3), then uploads the
//     privacy-protected prediction set D̂ᵗᵢ (Eq. 4, §III-B2);
//  3. the server trains its hidden model on the received predictions
//     (Eq. 5) — rebuilding its interaction graph from them when the server
//     model is a graph recommender;
//  4. the server disperses confidence-filtered + hard soft labels D̃ᵢ back to
//     each client (Eq. 6, §III-B3).
package fed

import (
	"fmt"
	"math"

	"ptffedrec/internal/data"
	"ptffedrec/internal/eval"
	"ptffedrec/internal/models"
	"ptffedrec/internal/privacy"
)

// DisperseMode selects how the server builds D̃ᵢ — Table VII's ablation arms.
type DisperseMode string

// Dispersal strategies: the paper's confidence+hard construction and the
// ablations that replace either half (or both) with random items.
const (
	DisperseConfHard  DisperseMode = "conf+hard"   // paper default (Eq. 9)
	DisperseNoHard    DisperseMode = "-hard"       // hard half replaced by random
	DisperseNoConf    DisperseMode = "-confidence" // confidence half replaced by random
	DisperseAllRandom DisperseMode = "-confidence-hard"
)

// ParseDisperseMode converts a string (CLI flag) to a DisperseMode.
func ParseDisperseMode(s string) (DisperseMode, bool) {
	switch DisperseMode(s) {
	case DisperseConfHard, DisperseNoHard, DisperseNoConf, DisperseAllRandom:
		return DisperseMode(s), true
	}
	return "", false
}

// Config carries every protocol hyper-parameter. Zero values are invalid;
// build from DefaultConfig, which encodes §IV-D.
type Config struct {
	Rounds         int     // global rounds T (paper: 20)
	ClientFraction float64 // |Uᵗ|/|U| (paper: 1.0 — all clients per round)
	ClientEpochs   int     // local epochs L (paper: 5)
	ServerEpochs   int     // server epochs (paper: 2)
	ClientBatch    int     // client batch size (paper: 64)
	ServerBatch    int     // server batch size (paper: 1024)
	NegRatio       int     // negatives per positive (paper: data.NegRatio)

	Dim    int     // embedding dimension (paper: 32)
	LR     float64 // Adam learning rate (paper: 1e-3)
	Layers int     // GNN propagation layers (paper: models.Layers)

	ClientModel models.Kind // paper default: NeuMF on every client
	ServerModel models.Kind // the provider's hidden model

	Alpha    int          // |D̃ᵢ| (paper: 30)
	Mu       float64      // confidence vs hard portion µ (paper: 0.5)
	Disperse DisperseMode // Table VII ablation arm

	Privacy privacy.Config // §III-B2 upload mechanism

	// GraphThreshold is the uploaded-score cutoff: the server treats a triple
	// scored >= GraphThreshold as a soft-positive edge when rebuilding its
	// graph. Its range is (0, 1]: an edge's weight is its score, and the graph
	// engine takes strictly positive weights only. The paper leaves this
	// construction open (swept by the ablation-servergraph experiment).
	GraphThreshold float64

	// EvalK is the ranking cutoff (paper: eval.K).
	EvalK int

	// EvalEvery computes server metrics every n rounds (0 = only at end).
	EvalEvery int

	// Workers bounds every pool of the run (0 = GOMAXPROCS): client local
	// training, the graph engine's commit, the server model's intra-batch
	// SGD (fixed-size gradient chunks merged in chunk order), the dispersal
	// loop and evaluation all fan out over this many workers.
	// Seeded runs produce bitwise-identical Histories, metrics and server
	// snapshots for every worker count. Client models always train serially
	// — they already run on this pool.
	Workers int

	// LazyClients is ignored: a ClientHost always builds each client on its
	// first participation. It stays only because bench/ still sets it.
	LazyClients bool

	// Faults optionally injects client dropouts and truncated uploads to
	// exercise the protocol's robustness (zero value = no faults).
	Faults FaultPlan

	// QuantizeScores must be false: predictions cross the wire in the one
	// 12-byte format (comm.EncodePredictions), and Validate refuses true. It
	// stays only because bench/ still reads it.
	QuantizeScores bool

	Seed uint64
}

// DefaultConfig returns the paper's hyper-parameters (§IV-D) with the given
// server model and NeuMF clients.
func DefaultConfig(serverModel models.Kind) Config {
	return Config{
		Rounds:         20,
		ClientFraction: 1.0,
		ClientEpochs:   5,
		ServerEpochs:   2,
		ClientBatch:    64,
		ServerBatch:    1024,
		NegRatio:       data.NegRatio,
		Dim:            32,
		LR:             1e-3,
		Layers:         models.Layers,
		ClientModel:    models.KindNeuMF,
		ServerModel:    serverModel,
		Alpha:          30,
		Mu:             0.5,
		Disperse:       DisperseConfHard,
		Privacy:        privacy.DefaultConfig(),
		GraphThreshold: 0.5,
		EvalK:          eval.K,
		Seed:           1,
	}
}

// EvalDue reports whether round (0-based) ends with a server evaluation:
// every EvalEvery rounds, never when EvalEvery is 0.
func (c Config) EvalDue(round int) bool {
	return c.EvalEvery > 0 && (round+1)%c.EvalEvery == 0
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.Rounds <= 0:
		return fmt.Errorf("fed: Rounds = %d", c.Rounds)
	// The negated comparisons of the fractions and rates below reject NaN,
	// which would otherwise pass and fail silently: a NaN fraction selects
	// one client a round, a NaN µ disperses nothing and a NaN fault rate
	// never fires.
	case !(c.ClientFraction > 0 && c.ClientFraction <= 1):
		return fmt.Errorf("fed: ClientFraction = %v", c.ClientFraction)
	case c.ClientEpochs <= 0 || c.ServerEpochs <= 0:
		return fmt.Errorf("fed: epochs %d/%d", c.ClientEpochs, c.ServerEpochs)
	case c.ClientBatch <= 0 || c.ServerBatch <= 0:
		return fmt.Errorf("fed: batch sizes %d/%d", c.ClientBatch, c.ServerBatch)
	case c.NegRatio <= 0:
		return fmt.Errorf("fed: NegRatio = %d", c.NegRatio)
	case c.Dim <= 0:
		return fmt.Errorf("fed: Dim = %d", c.Dim)
	// A negative layer count makes a graph server's readout weight
	// 1/(Layers+1) infinite or negative, and a learning rate that is not a
	// finite positive number trains away from the loss or to NaN; neither
	// fails on its own.
	case c.Layers < 0:
		return fmt.Errorf("fed: Layers = %d", c.Layers)
	case !(c.LR > 0 && c.LR <= math.MaxFloat64):
		return fmt.Errorf("fed: LR = %v", c.LR)
	case c.Alpha < 0:
		return fmt.Errorf("fed: Alpha = %d", c.Alpha)
	case !(c.Mu >= 0 && c.Mu <= 1):
		return fmt.Errorf("fed: Mu = %v", c.Mu)
	case !(c.GraphThreshold > 0 && c.GraphThreshold <= 1):
		return fmt.Errorf("fed: GraphThreshold = %v", c.GraphThreshold)
	case c.EvalK <= 0:
		return fmt.Errorf("fed: EvalK = %d", c.EvalK)
	case !(c.Faults.DropoutRate >= 0 && c.Faults.DropoutRate <= 1):
		return fmt.Errorf("fed: Faults.DropoutRate = %v", c.Faults.DropoutRate)
	case !(c.Faults.TruncateRate >= 0 && c.Faults.TruncateRate <= 1):
		return fmt.Errorf("fed: Faults.TruncateRate = %v", c.Faults.TruncateRate)
	case c.QuantizeScores:
		return fmt.Errorf("fed: QuantizeScores = true: the quantized codec is retired")
	// The upload sampler draws β ~ U[BetaMin, BetaMax] and γ ~
	// U{GammaMin..GammaMax}; an empty or out-of-range window panics in the
	// first client round. The negated comparisons reject NaN.
	case c.Privacy.GammaMin < 0 || c.Privacy.GammaMax < c.Privacy.GammaMin:
		return fmt.Errorf("fed: Privacy γ window [%d, %d]", c.Privacy.GammaMin, c.Privacy.GammaMax)
	case !(c.Privacy.BetaMin >= 0 && c.Privacy.BetaMin <= c.Privacy.BetaMax && c.Privacy.BetaMax <= 1):
		return fmt.Errorf("fed: Privacy β window [%v, %v]", c.Privacy.BetaMin, c.Privacy.BetaMax)
	case !(c.Privacy.Lambda >= 0 && c.Privacy.Lambda <= 1):
		return fmt.Errorf("fed: Privacy.Lambda = %v", c.Privacy.Lambda)
	case !(c.Privacy.LaplaceScale >= 0):
		return fmt.Errorf("fed: Privacy.LaplaceScale = %v", c.Privacy.LaplaceScale)
	}
	if _, ok := ParseDisperseMode(string(c.Disperse)); !ok {
		return fmt.Errorf("fed: Disperse = %q", c.Disperse)
	}
	if _, ok := privacy.ParseDefense(string(c.Privacy.Defense)); !ok {
		return fmt.Errorf("fed: Privacy.Defense = %q", c.Privacy.Defense)
	}
	return nil
}
