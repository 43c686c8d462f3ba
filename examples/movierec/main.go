// Movie recommendation scenario: the paper's motivating deployment. A movie
// platform wants a strong recommender without collecting watch histories and
// without shipping its model to clients (where a competitor could copy it).
//
// This example compares the three deployment choices the paper evaluates on
// the MovieLens profile:
//
//  1. centralized training (best quality, no privacy),
//  2. a parameter-transmission FedRec (FCF — user privacy, but the model is
//     public and traffic is parameter-sized),
//  3. PTF-FedRec (user privacy + model privacy + kilobyte traffic).
//
// It then produces top-10 recommendations for one user from the hidden
// server model, which is the artifact the platform actually serves.
package main

import (
	"fmt"
	"log"
	"math"
	"sort"

	"ptffedrec"
)

func main() {
	dataset := ptffedrec.Generate(ptffedrec.ML100KSmall, 7)
	split := dataset.Split(ptffedrec.NewRand(7), 0.2)
	fmt.Println("movie platform dataset:", dataset.Stats())

	// --- Option 1: centralized (the pre-GDPR baseline). -------------------
	ccfg := ptffedrec.DefaultCentralConfig(ptffedrec.ServerNGCF)
	ccfg.Epochs = 15
	cTrainer, err := ptffedrec.NewCentralTrainer(split, ccfg)
	if err != nil {
		log.Fatal(err)
	}
	cTrainer.Run()
	cRes := cTrainer.Evaluate()
	fmt.Printf("\ncentralized NGCF:        Recall@20=%.4f NDCG@20=%.4f (raw data leaves devices)\n",
		cRes.Recall, cRes.NDCG)

	// --- Option 2: FCF, a parameter-transmission FedRec. -------------------
	bcfg := ptffedrec.DefaultBaselineConfig()
	bcfg.Rounds = 10
	bcfg.LocalEpochs = 3
	bcfg.LR = 5e-3
	fcf, err := ptffedrec.NewFCF(split, bcfg)
	if err != nil {
		log.Fatal(err)
	}
	for r := 0; r < bcfg.Rounds; r++ {
		fcf.RunRound(r)
	}
	fRes := fcf.Evaluate()
	fmt.Printf("FCF (param transmission): Recall@20=%.4f NDCG@20=%.4f, %s/client/round, model public\n",
		fRes.Recall, fRes.NDCG, ptffedrec.FormatBytes(fcf.AvgBytesPerClientPerRound()))

	// --- Option 3: PTF-FedRec with the provider's NGCF hidden. -------------
	pcfg := ptffedrec.DefaultConfig(ptffedrec.ServerNGCF)
	pcfg.Rounds = 10
	pcfg.ClientEpochs = 3
	trainer, err := ptffedrec.NewTrainer(split, pcfg)
	if err != nil {
		log.Fatal(err)
	}
	history, err := trainer.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PTF-FedRec(NGCF):        Recall@20=%.4f NDCG@20=%.4f, %s/client/round, model hidden\n",
		history.Final.Recall, history.Final.NDCG,
		ptffedrec.FormatBytes(history.BytesPerClientRound()))

	// --- Serve recommendations from the hidden model. ----------------------
	const user = 3
	type scored struct {
		item  int
		score float64
	}
	var items []int
	for v := 0; v < split.NumItems; v++ {
		if !split.InTrain(user, v) {
			items = append(items, v)
		}
	}
	// One logit block scores the user against every candidate.
	logits := &ptffedrec.Matrix{Rows: 1, Cols: len(items), Data: make([]float64, len(items))}
	trainer.Server().Model().ScoreUsersBlockLogitsInto(logits, []int{user}, items)
	candidates := make([]scored, len(items))
	for j, v := range items {
		candidates[j] = scored{v, 1 / (1 + math.Exp(-logits.Data[j]))}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].score > candidates[j].score })
	fmt.Printf("\ntop-10 movies for user %d (from the hidden server model):\n", user)
	for i := 0; i < 10 && i < len(candidates); i++ {
		marker := ""
		if split.InTest(user, candidates[i].item) {
			marker = "  <- held-out positive"
		}
		fmt.Printf("  %2d. movie %4d  score %.3f%s\n", i+1, candidates[i].item, candidates[i].score, marker)
	}
}
