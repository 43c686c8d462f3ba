package baselines

import "ptffedrec/internal/data"

// FedMF is secure federated matrix factorization: item gradients travel as
// Paillier ciphertexts so the server can aggregate without seeing plaintext.
// Clients share the secret key; they upload E(−lr·g/|Uᵗ|) so the server's
// homomorphic sum directly yields the update (scale never grows).
//
// Here the sum is taken in plaintext, which is the update the homomorphic sum
// decrypts to, and no key is generated: Table IV's cell is the size of the
// packed ciphertexts the protocol ships, which is arithmetic on KeyBits and
// SlotBits.
type FedMF struct {
	*sharedItems // items is the plaintext view of the item matrix
}

// NewFedMF builds the baseline.
func NewFedMF(sp *data.Split, cfg Config) (*FedMF, error) {
	s, err := newSharedItems(sp, cfg, "fedmf")
	if err != nil {
		return nil, err
	}
	f := &FedMF{sharedItems: s}
	s.aggregate = f.homomorphicSum
	// The payload is the whole item matrix as packed Paillier ciphertexts, in
	// each direction. Uploading gradients for every item (zeros included) is
	// what hides which items a client interacted with — and what makes FedMF
	// the most expensive row of Table IV.
	slots := packedSlots(cfg.KeyBits, cfg.SlotBits)
	cts := (sp.NumItems*cfg.Dim + slots - 1) / slots
	s.clientRoundBytes = 2 * cts * ciphertextBytes(cfg.KeyBits)
	return f, nil
}

// packedSlots is how many slotBits-wide slots one plaintext carries, leaving
// one slot of headroom below the modulus n. n is the product of two
// ⌊keyBits/2⌋-bit primes whose top two bits are set (crypto/rand.Prime), so
// it has exactly 2⌊keyBits/2⌋ bits.
func packedSlots(keyBits int, slotBits uint) int {
	return max(1, (2*(keyBits/2)-int(slotBits))/int(slotBits))
}

// ciphertextBytes is the wire size of one ciphertext, an element of Z*_{n²}
// serialised big-endian: 2·keyBits bits.
func ciphertextBytes(keyBits int) int { return 2 * keyBits / 8 }

// homomorphicSum is FedMF's aggregation: every client contributes −lr·g/n,
// and the contributions are summed into the item matrix.
func (f *FedMF) homomorphicSum(_ []int, grads [][]float64) {
	scale := -f.cfg.LR / float64(len(grads))
	for _, g := range grads {
		for j, v := range g {
			f.items.Data[j] += scale * v
		}
	}
}
