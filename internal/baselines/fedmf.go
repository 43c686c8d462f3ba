package baselines

import (
	"fmt"
	"math/big"

	"ptffedrec/internal/data"
	"ptffedrec/internal/hesim"
	"ptffedrec/internal/tensor"
)

// FedMF is secure federated matrix factorization: item gradients travel as
// Paillier ciphertexts so the server can aggregate without seeing plaintext.
// Clients share the secret key; they upload E(−lr·g/|Uᵗ|) so the server's
// homomorphic sum directly yields the update (scale never grows).
//
// In CipherReal mode every value is really encrypted/aggregated/decrypted
// through internal/hesim — feasible for test-sized universes. In
// CipherAccounted mode (the default) aggregation runs in plaintext but the
// meter charges the exact ciphertext byte counts; Table IV's costs come from
// the ciphertext math either way.
type FedMF struct {
	*sharedItems // items is the plaintext view of the item matrix

	key *hesim.PrivateKey
	fp  *hesim.FixedPoint
	ctQ []*hesim.Ciphertext // Real mode: one ciphertext per value
}

// NewFedMF builds the baseline. Real mode generates an actual key pair and
// an encrypted copy of the item matrix.
func NewFedMF(sp *data.Split, cfg Config) (*FedMF, error) {
	s, err := newSharedItems(sp, cfg, "fedmf")
	if err != nil {
		return nil, err
	}
	f := &FedMF{sharedItems: s}
	s.aggregate = f.homomorphicSum
	key, err := hesim.GenerateKey(nil, cfg.KeyBits)
	if err != nil {
		return nil, fmt.Errorf("baselines: fedmf keygen: %w", err)
	}
	f.key = key
	f.fp = hesim.NewFixedPoint(&key.PublicKey, cfg.FracBits)
	// The payload is the whole item matrix as packed Paillier ciphertexts, in
	// each direction. Uploading gradients for every item (zeros included) is
	// what hides which items a client interacted with — and what makes FedMF
	// the most expensive row of Table IV.
	values := sp.NumItems * cfg.Dim
	slots := hesim.NewPacker(&key.PublicKey, cfg.SlotBits, cfg.FracBits).Slots
	cts := (values + slots - 1) / slots
	s.payloadBytes = cts * hesim.CiphertextBytes(cfg.KeyBits)
	if cfg.Cipher == CipherReal {
		f.ctQ = make([]*hesim.Ciphertext, len(f.items.Data))
		for i, v := range f.items.Data {
			z, err := f.fp.Encode(v)
			if err != nil {
				return nil, fmt.Errorf("baselines: fedmf encode: %w", err)
			}
			ct, err := key.Encrypt(nil, z)
			if err != nil {
				return nil, fmt.Errorf("baselines: fedmf encrypt: %w", err)
			}
			f.ctQ[i] = ct
		}
	}
	return f, nil
}

// homomorphicSum is FedMF's aggregation: every client contributes −lr·g/n,
// summed under encryption (Real) or in plaintext (Accounted).
func (f *FedMF) homomorphicSum(_ []int, grads [][]float64) {
	scale := -f.cfg.LR / float64(len(grads))
	if f.cfg.Cipher != CipherReal {
		for _, g := range grads {
			for j, v := range g {
				f.items.Data[j] += scale * v
			}
		}
		return
	}
	// Each client encrypts −lr·g/n; the server homomorphically adds all
	// contributions into the encrypted item matrix.
	for _, g := range grads {
		for j, v := range g {
			if v == 0 {
				continue
			}
			z, err := f.fp.Encode(scale * v)
			if err != nil {
				continue // gradient overflowed fixed-point; drop it
			}
			ct, err := f.key.Encrypt(nil, z)
			if err != nil {
				continue
			}
			f.ctQ[j] = f.key.Add(f.ctQ[j], ct)
		}
	}
	// Refresh the plaintext view from the ciphertexts (clients would do this
	// with the shared key at the next download).
	for j := range f.items.Data {
		f.items.Data[j] = f.fp.Decode(f.key.Decrypt(f.ctQ[j]))
	}
}

// DecryptedItems returns the item matrix recovered from ciphertext (Real
// mode only) so tests can verify the encrypted and plaintext paths agree.
func (f *FedMF) DecryptedItems() (*tensor.Matrix, error) {
	if f.cfg.Cipher != CipherReal {
		return nil, fmt.Errorf("baselines: DecryptedItems requires CipherReal")
	}
	out := tensor.New(f.split.NumItems, f.cfg.Dim)
	for j := range out.Data {
		out.Data[j] = f.fp.Decode(f.key.Decrypt(f.ctQ[j]))
	}
	return out, nil
}

// HomomorphicSmokeTest exercises one encrypt-add-decrypt cycle with the
// session key, verifying the key material works (used by examples).
func (f *FedMF) HomomorphicSmokeTest() error {
	a, err := f.key.Encrypt(nil, big.NewInt(2))
	if err != nil {
		return err
	}
	b, err := f.key.Encrypt(nil, big.NewInt(3))
	if err != nil {
		return err
	}
	if got := f.key.Decrypt(f.key.Add(a, b)); got.Int64() != 5 {
		return fmt.Errorf("baselines: homomorphic smoke test got %v", got)
	}
	return nil
}
