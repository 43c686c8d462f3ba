// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV). The experiments are data: registry.go declares each one
// as a list of arms (a method trained by internal/fed, internal/baselines or
// internal/central) and a column axis, one runner fills one Grid per
// experiment, and one Print renders it with a row per arm. Table II and the
// scalability sweep keep result types of their own behind the same Renderer.
//
// Two scales are supported: ScaleSmall runs the calibrated scaled-down
// dataset profiles (minutes on a laptop; the default for benchmarks), and
// ScaleFull runs the paper-sized profiles. The Quick flag additionally
// shortens training for smoke-level runs.
package experiments

import (
	"fmt"
	"io"

	"ptffedrec/internal/baselines"
	"ptffedrec/internal/central"
	"ptffedrec/internal/data"
	"ptffedrec/internal/fed"
	"ptffedrec/internal/models"
)

// Scale selects the dataset profiles.
type Scale string

// Dataset scales.
const (
	ScaleSmall Scale = "small"
	ScaleFull  Scale = "full"
)

// Options configures a whole experiment run.
type Options struct {
	Scale Scale
	Quick bool // shorten training (benchmark smoke runs)
	Seed  uint64
	Out   io.Writer // nil silences progress output

	// ProfilesOverride replaces the scale-selected datasets (tests use the
	// Tiny profile to keep the full grid fast).
	ProfilesOverride []data.Profile

	// Rounds, when positive, overrides the global round count of the
	// memory-profile scalability mode (the huge profiles). Only that mode
	// honours it: the worker-sweep and table experiments keep their tuned
	// round counts so committed benchmarks stay comparable across runs.
	Rounds int
}

// DefaultOptions returns the benchmark-friendly configuration.
func DefaultOptions() Options {
	return Options{Scale: ScaleSmall, Quick: true, Seed: 1}
}

// Profiles returns the three evaluation datasets at the requested scale, in
// the paper's order (MovieLens, Steam, Gowalla).
func (o Options) Profiles() []data.Profile {
	if len(o.ProfilesOverride) > 0 {
		return o.ProfilesOverride
	}
	if o.Scale == ScaleFull {
		return []data.Profile{data.ML100K, data.Steam200K, data.Gowalla}
	}
	return []data.Profile{data.ML100KSmall, data.SteamSmall, data.GowallaSmall}
}

// logf writes progress output if a writer is configured.
func (o Options) logf(format string, args ...any) {
	if o.Out != nil {
		fmt.Fprintf(o.Out, format, args...)
	}
}

// split generates and splits one dataset deterministically. It streams the
// generation — working memory is one user's profile plus the Split itself,
// never the materialised Dataset — and produces output identical to
// Generate+Dataset.Split (pinned by internal/data's stream equality tests).
func (o Options) split(p data.Profile) *data.Split {
	return data.StreamSplit(p, o.Seed, 0.2)
}

// fedConfig returns the PTF-FedRec configuration for this run scale. The
// small profiles have ~6x shorter user profiles than the paper's datasets,
// so batch sizes shrink proportionally to keep the number of optimizer steps
// per round comparable to the paper's setting.
func (o Options) fedConfig(server models.Kind) fed.Config {
	cfg := fed.DefaultConfig(server)
	cfg.Seed = o.Seed
	if o.Scale != ScaleFull {
		cfg.ClientBatch = 16
		cfg.ServerBatch = 256
		cfg.LR = 2e-3
	}
	if o.Quick {
		cfg.Rounds = 6
		cfg.ClientEpochs = 2
		cfg.ServerEpochs = 1
		cfg.Dim = 16
	}
	return cfg
}

// baselineConfig returns the parameter-transmission baseline configuration.
func (o Options) baselineConfig() baselines.Config {
	cfg := baselines.DefaultConfig()
	cfg.Seed = o.Seed
	cfg.LR = 5e-3 // pointwise SGD-style local updates converge slowly at 1e-3
	if o.Quick {
		cfg.Rounds = 6
		cfg.LocalEpochs = 2
		cfg.Dim = 16
	}
	return cfg
}

// centralConfig returns the centralized-training configuration.
func (o Options) centralConfig(kind models.Kind) central.Config {
	cfg := central.DefaultConfig(kind)
	cfg.Seed = o.Seed
	if o.Scale != ScaleFull {
		cfg.BatchSize = 256
		cfg.LR = 2e-3
	}
	if o.Quick {
		cfg.Epochs = 10
		cfg.Dim = 16
	}
	return cfg
}
