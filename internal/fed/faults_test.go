package fed

import (
	"bytes"
	"math"
	"testing"

	"ptffedrec/internal/models"
)

func TestDropoutReducesUploads(t *testing.T) {
	sp := tinySplit(t)
	cfg := fastConfig(models.KindNeuMF)
	cfg.Rounds = 2
	cfg.Faults.DropoutRate = 0.5
	tr, err := NewTrainer(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := tr.RunRound(0)
	if rs.Dropped == 0 {
		t.Fatal("no clients dropped at 50% dropout")
	}
	if rs.Dropped >= rs.Participants {
		t.Fatal("every client dropped at 50% dropout (suspicious)")
	}
	// The server must still have trained on the survivors.
	if rs.ServerLoss == 0 {
		t.Fatal("server did not train on surviving uploads")
	}
	// Dropped clients receive no dispersal this round.
	withData := 0
	for _, c := range tr.Clients() {
		if len(c.ServerData()) > 0 {
			withData++
		}
	}
	if withData != rs.Participants-rs.Dropped {
		t.Fatalf("dispersal went to %d clients, want %d survivors", withData, rs.Participants-rs.Dropped)
	}
}

func TestProtocolSurvivesHeavyFaults(t *testing.T) {
	sp := tinySplit(t)
	cfg := fastConfig(models.KindLightGCN)
	cfg.Rounds = 3
	cfg.Faults.DropoutRate = 0.3
	cfg.Faults.TruncateRate = 0.5
	tr, err := NewTrainer(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if h.Final.Users == 0 {
		t.Fatal("evaluation broke under faults")
	}
	for _, rs := range h.Rounds {
		if rs.Dropped == 0 && rs.Round > 0 {
			continue // randomness may spare a round
		}
	}
}

func TestTotalDropoutStillCompletes(t *testing.T) {
	sp := tinySplit(t)
	cfg := fastConfig(models.KindNeuMF)
	cfg.Rounds = 1
	cfg.Faults.DropoutRate = 1.0
	tr, err := NewTrainer(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := tr.RunRound(0)
	if rs.Dropped != rs.Participants {
		t.Fatalf("dropped %d of %d", rs.Dropped, rs.Participants)
	}
	if rs.ServerLoss != 0 || rs.UploadBytes != 0 {
		t.Fatal("server trained with zero uploads")
	}
}

func TestTruncateShrinksUploads(t *testing.T) {
	sp := tinySplit(t)
	base := fastConfig(models.KindNeuMF)
	base.Rounds = 1
	clean, err := NewTrainer(sp, base)
	if err != nil {
		t.Fatal(err)
	}
	cleanStats := clean.RunRound(0)

	faulty := base
	faulty.Faults.TruncateRate = 1.0
	ft, err := NewTrainer(sp, faulty)
	if err != nil {
		t.Fatal(err)
	}
	faultyStats := ft.RunRound(0)
	if faultyStats.UploadBytes >= cleanStats.UploadBytes {
		t.Fatalf("truncation did not shrink uploads: %d vs %d",
			faultyStats.UploadBytes, cleanStats.UploadBytes)
	}
}

func TestFaultConfigValidation(t *testing.T) {
	cfg := DefaultConfig(models.KindNeuMF)
	cfg.Faults.DropoutRate = 1.5
	if err := cfg.Validate(); err == nil {
		t.Fatal("bad dropout rate accepted")
	}
	cfg = DefaultConfig(models.KindNeuMF)
	cfg.Faults.TruncateRate = -0.1
	if err := cfg.Validate(); err == nil {
		t.Fatal("bad truncate rate accepted")
	}
	// A NaN rate never fires, so a faulted run would pass as clean.
	cfg = DefaultConfig(models.KindNeuMF)
	cfg.Faults.DropoutRate = math.NaN()
	if err := cfg.Validate(); err == nil {
		t.Fatal("NaN dropout rate accepted")
	}
	cfg = DefaultConfig(models.KindNeuMF)
	cfg.Faults.TruncateRate = math.NaN()
	if err := cfg.Validate(); err == nil {
		t.Fatal("NaN truncate rate accepted")
	}
}

func TestHistoryJSONRoundTrip(t *testing.T) {
	sp := tinySplit(t)
	cfg := fastConfig(models.KindNeuMF)
	cfg.Rounds = 2
	cfg.EvalEvery = 1
	tr, err := NewTrainer(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadHistoryJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rounds) != len(h.Rounds) || back.Final.NDCG != h.Final.NDCG {
		t.Fatal("history JSON round trip lost data")
	}
	for i := range h.Rounds {
		if back.Rounds[i] != h.Rounds[i] {
			t.Fatalf("round %d changed in the JSON round trip:\n  %+v\n  %+v", i, back.Rounds[i], h.Rounds[i])
		}
	}
	if back.TotalUploadBytes() != h.TotalUploadBytes() {
		t.Fatal("TotalUploadBytes mismatch")
	}
	if back.TotalDisperseBytes() <= 0 {
		t.Fatal("TotalDisperseBytes not preserved")
	}
}

func TestReadHistoryJSONError(t *testing.T) {
	if _, err := ReadHistoryJSON(bytes.NewBufferString("{broken")); err == nil {
		t.Fatal("broken JSON accepted")
	}
}
