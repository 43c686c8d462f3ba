// Package ptffedrec is a Go implementation of PTF-FedRec — "Hide Your Model:
// A Parameter Transmission-free Federated Recommender System" (ICDE 2024).
//
// PTF-FedRec lets a service provider train a strong, private recommendation
// model on a central server while every user's raw interactions stay on
// their own device and no model parameters are ever transmitted in either
// direction. Clients train small local models and upload perturbed
// prediction scores for a sampled subset of items; the server trains its
// hidden model on those predictions and answers with soft labels for
// confidence-filtered and hard items. Per-round traffic is a few kilobytes
// per client instead of the megabytes parameter-transmission FedRecs ship.
//
// This package is the public facade over the implementation in internal/:
//
//	split := ptffedrec.Generate(ptffedrec.ML100KSmall, 1).
//	        Split(ptffedrec.NewRand(1), 0.2)
//	cfg := ptffedrec.DefaultConfig(ptffedrec.ServerNGCF)
//	trainer, err := ptffedrec.NewTrainer(split, cfg)
//	history, err := trainer.Run()
//
// See the runnable programs under examples/ and the experiment harness
// behind cmd/ptfbench for complete walkthroughs of every paper experiment.
//
// Building and testing (see also the Makefile and README):
//
//	go build ./...                         # build everything
//	go test ./...                          # full test suite
//	go test -race -short ./...             # what CI runs
//	go test -bench=. -benchtime=1x -run=^$ # regenerate every table/figure once
//	go run ./cmd/ptfbench -exp scalability # parallel round-engine sweep
package ptffedrec

import (
	"io"

	"ptffedrec/internal/baselines"
	"ptffedrec/internal/central"
	"ptffedrec/internal/comm"
	"ptffedrec/internal/data"
	"ptffedrec/internal/eval"
	"ptffedrec/internal/experiments"
	"ptffedrec/internal/fed"
	"ptffedrec/internal/models"
	"ptffedrec/internal/privacy"
	"ptffedrec/internal/rng"
	"ptffedrec/internal/tensor"
)

// Core protocol types.
type (
	// Config is the PTF-FedRec hyper-parameter set (§IV-D defaults via
	// DefaultConfig; the Top Guess Attack's γ is fixed at the paper's 0.2).
	Config = fed.Config
	// Trainer orchestrates the protocol (Algorithm 1).
	Trainer = fed.Trainer
	// History is a training run's per-round trace plus final metrics.
	History = fed.History
	// RoundStats is one global round's record.
	RoundStats = fed.RoundStats
	// DisperseMode selects the server's D̃ᵢ construction strategy.
	DisperseMode = fed.DisperseMode
)

// Dataset types.
type (
	// Dataset is an implicit-feedback interaction set.
	Dataset = data.Dataset
	// Split is a per-user train/test partition.
	Split = data.Split
	// Profile describes a synthetic dataset calibrated to a real one.
	Profile = data.Profile
	// Stats is a Table II row.
	Stats = data.Stats
)

// Model and privacy types.
type (
	// ModelKind selects a recommender family.
	ModelKind = models.Kind
	// Defense selects the upload perturbation mechanism.
	Defense = privacy.Defense
	// Result is a (Recall@K, NDCG@K) evaluation outcome.
	Result = eval.Result
	// Prediction is one (user, item, score) wire triple.
	Prediction = comm.Prediction
	// Scorer fills a users × items Matrix with raw logits, σ of which are
	// the scores (every model satisfies it).
	Scorer = models.MultiBlockScorer
	// Matrix is the dense row-major matrix a Scorer fills.
	Matrix = tensor.Matrix
)

// Model kinds.
const (
	ServerNeuMF    = models.KindNeuMF
	ServerNGCF     = models.KindNGCF
	ServerLightGCN = models.KindLightGCN
)

// Defenses (Table V).
const (
	DefenseNone         = privacy.DefenseNone
	DefenseLDP          = privacy.DefenseLDP
	DefenseSampling     = privacy.DefenseSampling
	DefenseSamplingSwap = privacy.DefenseSamplingSwap
)

// Dispersal strategies (Table VII).
const (
	DisperseConfHard  = fed.DisperseConfHard
	DisperseNoHard    = fed.DisperseNoHard
	DisperseNoConf    = fed.DisperseNoConf
	DisperseAllRandom = fed.DisperseAllRandom
)

// Calibrated dataset profiles (Table II), their scaled-down variants, and
// the cross-device scalability workloads.
var (
	ML100K          = data.ML100K
	Steam200K       = data.Steam200K
	Gowalla         = data.Gowalla
	ML100KSmall     = data.ML100KSmall
	SteamSmall      = data.SteamSmall
	GowallaSmall    = data.GowallaSmall
	LargeScale      = data.LargeScale
	LargeScaleSmall = data.LargeScaleSmall
)

// DefaultConfig returns the paper's hyper-parameters with the given server
// model and NeuMF clients.
func DefaultConfig(serverModel ModelKind) Config { return fed.DefaultConfig(serverModel) }

// NewTrainer wires up one client per user and the hidden server model.
func NewTrainer(sp *Split, cfg Config) (*Trainer, error) { return fed.NewTrainer(sp, cfg) }

// Generate synthesises a dataset matching a calibrated profile.
func Generate(p Profile, seed uint64) *Dataset { return data.Generate(p, seed) }

// NewRand returns a deterministic random stream for splitting and sampling.
func NewRand(seed uint64) *rng.Stream { return rng.New(seed) }

// LoadMovieLens100K parses the real MovieLens `u.data` file (ratings ≥
// minRating become implicit-feedback interactions).
func LoadMovieLens100K(path string, minRating float64) (*Dataset, error) {
	return data.LoadMovieLens100K(path, minRating)
}

// LoadCSV parses a generic "user,item[,rating]" interaction file.
func LoadCSV(path, name string) (*Dataset, error) { return data.LoadCSV(path, name) }

// Centralized training (the paper's upper-bound comparison).
type (
	// CentralConfig configures centralized training at the paper's fixed
	// L = 3 graph layers, 1:4 negative sampling and Recall/NDCG@20.
	CentralConfig = central.Config
	// CentralTrainer trains a recommender on pooled data.
	CentralTrainer = central.Trainer
)

// DefaultCentralConfig returns §IV-D centralized settings.
func DefaultCentralConfig(kind ModelKind) CentralConfig { return central.DefaultConfig(kind) }

// NewCentralTrainer builds a centralized trainer.
func NewCentralTrainer(sp *Split, cfg CentralConfig) (*CentralTrainer, error) {
	return central.NewTrainer(sp, cfg)
}

// Parameter-transmission baselines (Tables III and IV).
type (
	// BaselineConfig configures FCF/FedMF/MetaMF at the paper's fixed 1:4
	// negative sampling and Recall/NDCG@20.
	BaselineConfig = baselines.Config
	// FCF is federated collaborative filtering.
	FCF = baselines.FCF
	// FedMF is federated matrix factorization whose traffic is costed as
	// packed Paillier ciphertexts.
	FedMF = baselines.FedMF
	// MetaMF generates per-user item embeddings with a server meta-network.
	MetaMF = baselines.MetaMF
)

// DefaultBaselineConfig returns the baselines' shared settings.
func DefaultBaselineConfig() BaselineConfig { return baselines.DefaultConfig() }

// NewFCF builds the FCF baseline.
func NewFCF(sp *Split, cfg BaselineConfig) (*FCF, error) { return baselines.NewFCF(sp, cfg) }

// NewFedMF builds the FedMF baseline.
func NewFedMF(sp *Split, cfg BaselineConfig) (*FedMF, error) { return baselines.NewFedMF(sp, cfg) }

// NewMetaMF builds the MetaMF baseline.
func NewMetaMF(sp *Split, cfg BaselineConfig) (*MetaMF, error) { return baselines.NewMetaMF(sp, cfg) }

// Experiment harness (every table and figure in §IV).
type (
	// ExperimentOptions configures an experiment run.
	ExperimentOptions = experiments.Options
)

// ExperimentIDs lists every runnable experiment, in registry order.
var ExperimentIDs = experiments.ExperimentIDs

// DefaultExperimentOptions returns the benchmark-friendly configuration
// (small profiles, shortened training).
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// RunExperiment executes one experiment by id, printing paper-style rows.
func RunExperiment(id string, o ExperimentOptions, w io.Writer) error {
	return experiments.Run(id, o, w)
}

// Ranking evaluates a scorer on a split at cutoff k, fanning the user loop
// out over GOMAXPROCS workers. Metrics are bitwise-identical for any worker
// count. Users are ranked through the scorer's multi-user logit blocks, and
// each held-out item's rank is the count of candidates that beat it.
// Candidates are the complement of the user's sorted train list, walked as
// the scores stream past, so a call retains nothing and costs one scan of the
// split's test lists beyond ranking.
func Ranking(s Scorer, sp *Split, k int) Result { return eval.RankingWorkers(s, sp, k, 0) }

// RankingWorkers is Ranking with an explicit worker count (<= 0 means
// GOMAXPROCS).
func RankingWorkers(s Scorer, sp *Split, k, workers int) Result {
	return eval.RankingWorkers(s, sp, k, workers)
}

// FormatBytes renders byte counts the way Table IV does.
func FormatBytes(b float64) string { return comm.FormatBytes(b) }
