package coord

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"ptffedrec/internal/bitset"
	"ptffedrec/internal/comm"
	"ptffedrec/internal/fed"
)

// FuzzReadUploads feeds raw request bytes through the upload body reader for
// a session hosting users [5, 10) in round 1. It must never panic, and every
// stream must resolve as complete, short write, dropped or refused: each
// outcome names a hosted user, no user resolves twice in one body, a drop
// carries nothing, and any other outcome keeps fed.RoundEngine.CloseRound's
// contract (predictions for its own user, in-range and distinct items,
// scores in [0, 1], a finite loss ≥ 0, an attack F1 in [0, 1]). A body the
// reader accepts resolves exactly one stream per begin frame.
func FuzzReadUploads(f *testing.F) {
	preds := func(u int, items ...int) []comm.Prediction {
		out := make([]comm.Prediction, len(items))
		for i, v := range items {
			out[i] = comm.Prediction{User: u, Item: v, Score: float64(i) / float64(len(items))}
		}
		return out
	}
	for _, body := range [][]byte{
		nil,
		encodeUpload(1, 7, preds(7, 3, 9, 12), 3, true),                                                              // clean
		encodeUpload(1, 7, nil, 0, true),                                                                             // dropped
		encodeUpload(1, 7, preds(7, 3, 9, 12, 20, 31), 3, false),                                                     // truncated
		slices.Concat(encodeUpload(1, 5, preds(5, 1, 2), 2, true), encodeUpload(1, 9, preds(9, 4, 8, 15), 1, false)), // two users
		slices.Concat(encodeUpload(1, 6, preds(6, 1), 1, true), encodeUpload(1, 6, preds(6, 2), 1, true)),            // a user repeated
	} {
		f.Add(body)
	}
	c := &Coordinator{split: testSplit()}
	numItems := c.split.NumItems
	f.Fuzz(func(t *testing.T, body []byte) {
		resolved := map[int]bool{}
		err := c.readUploads(bytes.NewReader(body), 1, &session{token: 1, lo: 5, hi: 10}, func(o fed.ClientOutcome) {
			if o.ID < 5 || o.ID >= 10 {
				t.Fatalf("resolved user %d outside the session's [5, 10)", o.ID)
			}
			if resolved[o.ID] {
				t.Fatalf("user %d resolved twice in one body", o.ID)
			}
			resolved[o.ID] = true
			if o.Dropped {
				if len(o.Upload) != 0 {
					t.Fatalf("user %d dropped with %d predictions", o.ID, len(o.Upload))
				}
				return
			}
			if len(o.Upload) == 0 {
				t.Fatalf("user %d resolved with no prediction", o.ID)
			}
			if !(o.Loss >= 0) || math.IsInf(o.Loss, 1) || !(o.AttackF1 >= 0 && o.AttackF1 <= 1) {
				t.Fatalf("user %d resolved with loss %v, attack F1 %v", o.ID, o.Loss, o.AttackF1)
			}
			named := bitset.New(numItems)
			for _, p := range o.Upload {
				if err := checkPrediction(p, o.ID, numItems); err != nil {
					t.Fatalf("user %d resolved with %v", o.ID, err)
				}
				if named.Contains(p.Item) {
					t.Fatalf("user %d resolved with item %d twice", o.ID, p.Item)
				}
				named.Add(p.Item)
			}
		})
		begins := 0
		for r := bytes.NewReader(body); ; {
			mt, _, err := comm.ReadFrame(r)
			if err != nil {
				break
			}
			if mt == comm.MsgUploadBegin {
				begins++
			}
		}
		if len(resolved) > begins || (err == nil && len(resolved) != begins) {
			t.Fatalf("%d of %d streams resolved (err %v)", len(resolved), begins, err)
		}
	})
}
