package baselines

import (
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/big"
	"testing"

	"ptffedrec/internal/data"
	"ptffedrec/internal/nn"
	"ptffedrec/internal/rng"
)

func tinySplit(t *testing.T) *data.Split {
	t.Helper()
	d := data.Generate(data.Tiny, 42)
	return d.Split(rng.New(1), 0.2)
}

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Rounds = 3
	cfg.LocalEpochs = 2
	cfg.Dim = 8
	cfg.LR = 0.01
	cfg.Workers = 4
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Rounds = 0 },
		func(c *Config) { c.LocalEpochs = 0 },
		func(c *Config) { c.Dim = 0 },
		func(c *Config) { c.ClientFraction = 0 },
		func(c *Config) { c.ClientFraction = 1.5 },
		func(c *Config) { c.ClientFraction = math.NaN() },
		func(c *Config) { c.LR = 0 },
		func(c *Config) { c.LR = -1 },
		func(c *Config) { c.LR = math.NaN() },
		func(c *Config) { c.LR = math.Inf(1) },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

func TestAdamVecConverges(t *testing.T) {
	a := newAdamVec(rng.New(1), 2, 0.05)
	target := []float64{0.4, -0.6}
	for i := 0; i < 800; i++ {
		g := []float64{2 * (a.w[0] - target[0]), 2 * (a.w[1] - target[1])}
		a.step(g)
	}
	for k := range target {
		if math.Abs(a.w[k]-target[k]) > 1e-2 {
			t.Fatalf("adamVec dim %d = %v, want %v", k, a.w[k], target[k])
		}
	}
}

func TestLocalSamplesShape(t *testing.T) {
	sp := tinySplit(t)
	s := rng.New(2)
	samples := localSamples(sp, s, 0)
	nPos := len(sp.Train[0])
	if len(samples) != nPos*5 {
		t.Fatalf("samples = %d, want %d", len(samples), nPos*5)
	}
	for i, smp := range samples {
		if i < nPos && smp.Label != 1 {
			t.Fatal("positives must come first with label 1")
		}
		if i >= nPos && smp.Label != 0 {
			t.Fatal("negatives must have label 0")
		}
	}
}

func TestFCFLearnsAndMeters(t *testing.T) {
	sp := tinySplit(t)
	f, err := NewFCF(sp, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := f.Evaluate()
	Run(f)
	after := f.Evaluate()
	if after.Users == 0 {
		t.Fatal("no users evaluated")
	}
	if after.NDCG < before.NDCG-0.02 {
		t.Fatalf("FCF got worse: %v -> %v", before.NDCG, after.NDCG)
	}
	// Comm = 2 × item matrix per round (float32).
	want := float64(2 * 4 * sp.NumItems * 8)
	if got := f.AvgBytesPerClientPerRound(); math.Abs(got-want) > 1 {
		t.Fatalf("FCF bytes = %v, want %v", got, want)
	}
}

func TestFedMFAccountedCostsExceedFCF(t *testing.T) {
	sp := tinySplit(t)
	cfg := fastConfig()
	fcf, err := NewFCF(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fedmf, err := NewFedMF(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fcf.RunRound(0)
	fedmf.RunRound(0)
	if fedmf.AvgBytesPerClientPerRound() <= fcf.AvgBytesPerClientPerRound() {
		t.Fatalf("FedMF (%v) should cost more than FCF (%v)",
			fedmf.AvgBytesPerClientPerRound(), fcf.AvgBytesPerClientPerRound())
	}
}

// TestFedMFPayloadBytes pins Table IV's FedMF arithmetic: a 2048-bit key's
// ciphertext is 512 B and packs 7 slots of 256 bits, and at the default
// config the tiny split's 60×32 item matrix is 275 ciphertexts each way.
func TestFedMFPayloadBytes(t *testing.T) {
	if got := ciphertextBytes(2048); got != 512 {
		t.Fatalf("ciphertextBytes(2048) = %d, want 512", got)
	}
	if got := packedSlots(2048, 256); got != 7 {
		t.Fatalf("packedSlots(2048, 256) = %d, want 7", got)
	}
	if got := packedSlots(256, 256); got != 1 {
		t.Fatalf("packedSlots(256, 256) = %d, want at least one slot", got)
	}
	sp := tinySplit(t)
	f, err := NewFedMF(sp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := f.AvgBytesPerClientPerRound(); got != 2*275*512 {
		t.Fatalf("FedMF bytes = %v, want %d", got, 2*275*512)
	}
}

// TestPaillierModulusBits pins the premise of packedSlots: the product of two
// ⌊k/2⌋-bit primes from crypto/rand.Prime has exactly 2⌊k/2⌋ bits.
func TestPaillierModulusBits(t *testing.T) {
	for _, keyBits := range []int{64, 65, 256} {
		p, err := crand.Prime(crand.Reader, keyBits/2)
		if err != nil {
			t.Fatal(err)
		}
		q, err := crand.Prime(crand.Reader, keyBits/2)
		if err != nil {
			t.Fatal(err)
		}
		if got := new(big.Int).Mul(p, q).BitLen(); got != 2*(keyBits/2) {
			t.Fatalf("keyBits %d: modulus has %d bits, want %d", keyBits, got, 2*(keyBits/2))
		}
	}
}

func TestMetaMFLearnsAndMeters(t *testing.T) {
	sp := tinySplit(t)
	m, err := NewMetaMF(sp, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	Run(m)
	res := m.Evaluate()
	if res.Users == 0 {
		t.Fatal("no users evaluated")
	}
	// MetaMF ships generated Q down + dQ up, so it must cost slightly more
	// than FCF's 2×Q.
	fcfBytes := float64(2 * 4 * sp.NumItems * 8)
	if got := m.AvgBytesPerClientPerRound(); got <= fcfBytes {
		t.Fatalf("MetaMF bytes = %v, want > FCF's %v", got, fcfBytes)
	}
}

func TestMetaMFPersonalization(t *testing.T) {
	// Different users must receive different generated item embeddings once
	// cv vectors have been trained apart.
	sp := tinySplit(t)
	cfg := fastConfig()
	m, err := NewMetaMF(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	Run(m)
	_, _, _, _, s0, _ := m.generate(0)
	_, _, _, _, s1, _ := m.generate(1)
	diff := 0.0
	for k := range s0 {
		diff += math.Abs(s0[k] - s1[k])
	}
	if diff == 0 {
		t.Fatal("meta-network generates identical modulation for all users")
	}
}

func TestBaselinesDeterministic(t *testing.T) {
	sp := tinySplit(t)
	cfg := fastConfig()
	cfg.Rounds = 2
	runFCF := func() float64 {
		f, err := NewFCF(sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		Run(f)
		return f.Evaluate().NDCG
	}
	if runFCF() != runFCF() {
		t.Fatal("FCF not deterministic")
	}
	runMeta := func() float64 {
		m, err := NewMetaMF(sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		Run(m)
		return m.Evaluate().NDCG
	}
	if runMeta() != runMeta() {
		t.Fatal("MetaMF not deterministic")
	}
}

func TestClientFraction(t *testing.T) {
	sp := tinySplit(t)
	cfg := fastConfig()
	cfg.ClientFraction = 0.5
	f, err := NewFCF(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.RunRound(0)
	if f.AvgBytesPerClientPerRound() <= 0 {
		t.Fatal("no traffic at all")
	}
}

// TestMetaMFStateDigestPinned pins MetaMF's whole state after five rounds of
// fastConfig on tinySplit to a fixed SHA-256: base, l1 and l2 (weights, both
// Adam moments and the step count), every collaborative-vector row, every
// user vector and the final Recall and NDCG, as float bits. The grid cells
// alone miss a one-ulp move in a meta-network gradient; this does not.
func TestMetaMFStateDigestPinned(t *testing.T) {
	const want = "4a00a57fa95bf61d94956cb405cf44290abe45c76ac2420ff6a80dc65f96335d"
	sp := tinySplit(t)
	cfg := fastConfig()
	cfg.Rounds = 5
	m, err := NewMetaMF(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	Run(m)
	res := m.Evaluate()
	h := sha256.New()
	put := func(xs ...float64) {
		for _, x := range xs {
			binary.Write(h, binary.LittleEndian, math.Float64bits(x))
		}
	}
	for _, p := range []*nn.Param{m.base, m.l1.W, m.l1.B, m.l2.W, m.l2.B} {
		put(p.W.Data...)
		put(p.M.Data...)
		put(p.V.Data...)
		binary.Write(h, binary.LittleEndian, int64(p.T))
	}
	for u := range sp.NumUsers {
		put(m.cv.Row(u)...)
	}
	for _, a := range m.users {
		put(a.w...)
	}
	put(res.Recall, res.NDCG)
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("MetaMF state digest %s, want %s", got, want)
	}
}
