// Model market: the intellectual-property scenario from the paper's
// introduction. A provider's competitive edge is its model architecture —
// here the difference between serving NeuMF, NGCF or LightGCN behind the
// same federation. Because PTF-FedRec only ever moves prediction scores,
// the provider can switch (or upgrade) the hidden server model without
// clients noticing anything except better recommendations, and nothing
// about the architecture is inferable from the protocol traffic.
//
// This example trains all three hidden models against identical NeuMF client
// fleets and shows (a) quality tracks the hidden model's strength — the
// provider's investment pays off, and (b) the bytes on the wire are
// indistinguishable across architectures — the model is genuinely hidden.
package main

import (
	"fmt"
	"log"

	"ptffedrec"
)

func main() {
	dataset := ptffedrec.Generate(ptffedrec.GowallaSmall, 5)
	split := dataset.Split(ptffedrec.NewRand(5), 0.2)
	fmt.Println("federation:", dataset.Stats())
	fmt.Println()
	fmt.Println("hidden server model   NDCG@20   Recall@20   wire traffic/client/round")
	fmt.Println("-------------------   -------   ---------   --------------------------")

	for _, kind := range []ptffedrec.ModelKind{
		ptffedrec.ServerNeuMF, ptffedrec.ServerNGCF, ptffedrec.ServerLightGCN,
	} {
		cfg := ptffedrec.DefaultConfig(kind)
		cfg.Rounds = 8
		cfg.ClientEpochs = 3

		trainer, err := ptffedrec.NewTrainer(split, cfg)
		if err != nil {
			log.Fatal(err)
		}
		history, err := trainer.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-19s   %7.4f   %9.4f   %s\n",
			kind, history.Final.NDCG, history.Final.Recall,
			ptffedrec.FormatBytes(history.BytesPerClientRound()))
	}

	fmt.Println()
	fmt.Println("Traffic is identical across hidden architectures: the clients see only")
	fmt.Println("(item, score) pairs either way. In a parameter-transmission FedRec the")
	fmt.Println("public parameters would reveal the architecture to every participant.")
}
