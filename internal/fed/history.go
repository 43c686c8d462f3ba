package fed

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSON serialises the run history (round trace + final metrics) for
// offline analysis and plotting.
func (h *History) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(h); err != nil {
		return fmt.Errorf("fed: encode history: %w", err)
	}
	return nil
}

// ReadHistoryJSON parses a history previously written with WriteJSON.
func ReadHistoryJSON(r io.Reader) (*History, error) {
	var h History
	if err := json.NewDecoder(r).Decode(&h); err != nil {
		return nil, fmt.Errorf("fed: decode history: %w", err)
	}
	return &h, nil
}

// TotalUploadBytes sums the client→server traffic across rounds.
func (h *History) TotalUploadBytes() int64 {
	var t int64
	for _, rs := range h.Rounds {
		t += rs.UploadBytes
	}
	return t
}

// TotalDisperseBytes sums the server→client traffic across rounds.
func (h *History) TotalDisperseBytes() int64 {
	var t int64
	for _, rs := range h.Rounds {
		t += rs.DispersBytes
	}
	return t
}

// BytesPerClientRound is the mean traffic, both directions, one selected
// client exchanges in one round — Table IV's quantity and the benchmark's
// wire_bytes_per_client_round: the upload and dispersal totals over the sum
// of every round's Participants, or 0 for a run of no rounds.
func (h *History) BytesPerClientRound() float64 {
	var clientRounds int
	for _, rs := range h.Rounds {
		clientRounds += rs.Participants
	}
	if clientRounds == 0 {
		return 0
	}
	return float64(h.TotalUploadBytes()+h.TotalDisperseBytes()) / float64(clientRounds)
}
