package models

// The per-item scoring loops MF, LightGCN and NGCF ran behind ScoreItems
// before every score went through MultiBlockScorer's logit block, moved here
// verbatim as the reference the block tests hold it to. NeuMF's is
// scoreItemsOracle in neumf_oracle_test.go.

import (
	"ptffedrec/internal/nn"
	"ptffedrec/internal/tensor"
)

// perItemOracle is every model's reference scorer: σ of each (u, item) pair,
// one pair at a time.
type perItemOracle interface {
	scoreItemsOracle(u int, items []int) []float64
}

// scoreItemsOracle is MF's per-item loop.
func (m *MF) scoreItemsOracle(u int, items []int) []float64 {
	out := make([]float64, 0, len(items))
	p, q := make([]float64, m.cfg.Dim), make([]float64, m.cfg.Dim)
	m.users.ReadRow(p, u)
	for _, v := range items {
		m.items.ReadRow(q, v)
		out = append(out, nn.Sigmoid(tensor.Dot(p, q)))
	}
	return out
}

// scoreItemsOracle is LightGCN's per-item loop over the propagated
// embeddings.
func (m *LightGCN) scoreItemsOracle(u int, items []int) []float64 {
	f := m.propagate()
	urow := f.Row(u)
	out := make([]float64, 0, len(items))
	for _, v := range items {
		out = append(out, nn.Sigmoid(tensor.Dot(urow, f.Row(m.itemNode(v)))))
	}
	return out
}

// scoreItemsOracle is NGCF's per-item loop: the layer-averaged readout of
// scoreNodes, pair by pair.
func (m *NGCF) scoreItemsOracle(u int, items []int) []float64 {
	m.propagate()
	out := make([]float64, 0, len(items))
	for _, v := range items {
		out = append(out, m.scoreNodes(u, m.itemNode(v)))
	}
	return out
}
