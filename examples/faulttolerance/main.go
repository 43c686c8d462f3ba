// Fault tolerance: federated deployments lose clients constantly — phones go
// offline, uploads time out. PTF-FedRec degrades gracefully because the
// server just trains on whatever predictions arrive, and every client's next
// round starts from its own persistent local model.
//
// This example trains the same federation under increasingly hostile
// conditions (0%, 20%, 50% dropout plus truncated uploads) and also turns on
// the quantized wire codec, showing that quality erodes smoothly while the
// already-small traffic shrinks further.
package main

import (
	"fmt"
	"log"

	"ptffedrec"
)

func main() {
	dataset := ptffedrec.Generate(ptffedrec.ML100KSmall, 3)
	split := dataset.Split(ptffedrec.NewRand(3), 0.2)
	fmt.Println("federation:", dataset.Stats())
	fmt.Println()
	fmt.Println("dropout  truncate  quantized   NDCG@20   dropped/round   traffic/client/round")
	fmt.Println("-------  --------  ---------   -------   -------------   ---------------------")

	type condition struct {
		dropout, truncate float64
		quantize          bool
	}
	conditions := []condition{
		{0, 0, false},
		{0.2, 0, false},
		{0.5, 0.3, false},
		{0.2, 0, true},
	}

	for _, cond := range conditions {
		cfg := ptffedrec.DefaultConfig(ptffedrec.ServerLightGCN)
		cfg.Rounds = 8
		cfg.ClientEpochs = 3
		cfg.Faults.DropoutRate = cond.dropout
		cfg.Faults.TruncateRate = cond.truncate
		cfg.QuantizeScores = cond.quantize

		trainer, err := ptffedrec.NewTrainer(split, cfg)
		if err != nil {
			log.Fatal(err)
		}
		history, err := trainer.Run()
		if err != nil {
			log.Fatal(err)
		}

		var dropped float64
		for _, rs := range history.Rounds {
			dropped += float64(rs.Dropped)
		}
		dropped /= float64(len(history.Rounds))

		fmt.Printf("%6.0f%%  %7.0f%%  %9v   %7.4f   %13.1f   %s\n",
			cond.dropout*100, cond.truncate*100, cond.quantize,
			history.Final.NDCG, dropped,
			ptffedrec.FormatBytes(history.BytesPerClientRound()))
	}

	fmt.Println()
	fmt.Println("No round ever blocks on a missing client: the server trains on the uploads")
	fmt.Println("that arrived and disperses soft labels only to the responders.")
}
