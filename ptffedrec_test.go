package ptffedrec

import (
	"bytes"
	"strings"
	"testing"
)

// TestFacadeEndToEnd exercises the documented public API path: generate,
// split, train, evaluate, count traffic.
func TestFacadeEndToEnd(t *testing.T) {
	profile := Profile{
		Name: "facade-test", NumUsers: 30, NumItems: 50,
		Interactions: 260, ZipfExponent: 1, Clusters: 3, ClusterBias: 0.7, MinPerUser: 5,
	}
	dataset := Generate(profile, 1)
	if dataset.NumUsers != 30 {
		t.Fatalf("users = %d", dataset.NumUsers)
	}
	split := dataset.Split(NewRand(1), 0.2)

	cfg := DefaultConfig(ServerNeuMF)
	cfg.Rounds = 2
	cfg.ClientEpochs = 1
	cfg.ServerEpochs = 1
	cfg.Dim = 8
	trainer, err := NewTrainer(split, cfg)
	if err != nil {
		t.Fatal(err)
	}
	history, err := trainer.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(history.Rounds) != 2 {
		t.Fatalf("rounds = %d", len(history.Rounds))
	}
	if history.BytesPerClientRound() <= 0 {
		t.Fatal("no traffic recorded")
	}
	if history.Final.Users == 0 {
		t.Fatal("no users evaluated")
	}
}

func TestFacadeCentralAndBaselines(t *testing.T) {
	profile := Profile{
		Name: "facade-test2", NumUsers: 25, NumItems: 40,
		Interactions: 210, ZipfExponent: 1, Clusters: 3, ClusterBias: 0.7, MinPerUser: 5,
	}
	split := Generate(profile, 2).Split(NewRand(2), 0.2)

	ccfg := DefaultCentralConfig(ServerLightGCN)
	ccfg.Epochs = 2
	ccfg.Dim = 8
	ct, err := NewCentralTrainer(split, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	ct.Run()
	if ct.Evaluate(20).Users == 0 {
		t.Fatal("central evaluation empty")
	}

	bcfg := DefaultBaselineConfig()
	bcfg.Rounds = 1
	bcfg.LocalEpochs = 1
	bcfg.Dim = 8
	fcf, err := NewFCF(split, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	fcf.RunRound(0)
	fedmf, err := NewFedMF(split, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	fedmf.RunRound(0)
	metamf, err := NewMetaMF(split, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	metamf.RunRound(0)
	if !(fedmf.AvgBytesPerClientPerRound() > fcf.AvgBytesPerClientPerRound()) {
		t.Fatal("FedMF should out-cost FCF through the facade too")
	}
}

func TestFacadeExperimentDispatcher(t *testing.T) {
	o := DefaultExperimentOptions()
	o.ProfilesOverride = []Profile{{
		Name: "facade-exp", NumUsers: 20, NumItems: 30,
		Interactions: 140, ZipfExponent: 1, Clusters: 2, ClusterBias: 0.7, MinPerUser: 4,
	}}
	var buf bytes.Buffer
	if err := RunExperiment("table2", o, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "facade-exp") {
		t.Fatalf("table2 output missing dataset: %s", buf.String())
	}
	if err := RunExperiment("not-an-experiment", o, &buf); err == nil {
		t.Fatal("bogus experiment accepted")
	}
	if len(ExperimentIDs) < 9 {
		t.Fatalf("ExperimentIDs = %v", ExperimentIDs)
	}
}

func TestFormatBytesFacade(t *testing.T) {
	if FormatBytes(2048) != "2.00KB" {
		t.Fatalf("FormatBytes = %s", FormatBytes(2048))
	}
}
