// Quickstart: train PTF-FedRec on a synthetic MovieLens-like dataset and
// watch the protocol round by round — client losses, server loss, the Top
// Guess Attack's (failing) inference, and the kilobyte-scale traffic.
package main

import (
	"fmt"
	"log"

	"ptffedrec"
)

func main() {
	// 1. Data: a scaled-down synthetic MovieLens-100K (internal/data/synth.go
	//    holds the calibration; swap in ptffedrec.LoadMovieLens100K for the
	//    real file).
	dataset := ptffedrec.Generate(ptffedrec.ML100KSmall, 1)
	fmt.Println("dataset:", dataset.Stats())
	split := dataset.Split(ptffedrec.NewRand(1), 0.2)

	// 2. Protocol: paper hyper-parameters, NGCF as the provider's hidden
	//    server model, NeuMF on every client. Shortened to 8 rounds so the
	//    example finishes in seconds.
	cfg := ptffedrec.DefaultConfig(ptffedrec.ServerNGCF)
	cfg.Rounds = 8
	cfg.ClientEpochs = 3
	cfg.EvalEvery = 4

	trainer, err := ptffedrec.NewTrainer(split, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Train. Every round: clients fit Dᵢ ∪ D̃ᵢ locally, upload perturbed
	//    predictions, the server trains its hidden model on them and answers
	//    with confidence-filtered + hard soft labels.
	history, err := trainer.Run()
	if err != nil {
		log.Fatal(err)
	}
	for _, rs := range history.Rounds {
		fmt.Println(rs)
	}

	// 4. Results: the provider's model quality, the privacy it conceded, and
	//    what the protocol cost on the wire.
	fmt.Printf("\nserver model:   Recall@20=%.4f NDCG@20=%.4f (over %d users)\n",
		history.Final.Recall, history.Final.NDCG, history.Final.Users)
	fmt.Printf("attack F1:      %.3f (top-guess against protected uploads)\n", history.MeanAttackF1)
	fmt.Printf("communication:  %s per client per round\n",
		ptffedrec.FormatBytes(history.BytesPerClientRound()))
}
