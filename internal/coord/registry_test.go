package coord

import (
	"fmt"
	"testing"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/data"
	"ptffedrec/internal/fed"
	"ptffedrec/internal/models"
	"ptffedrec/internal/rng"
)

// TestNoRetainedDispersalForHostedUser pins the invariant that lets a round
// start without touching the retention store: after every step of a seeded
// script of joins, leaves and published rounds, no retained dispersal belongs
// to a user that a live session hosts. A dispersal is retained only when
// nobody hosts its user, and a join takes its range's retained dispersals at
// once. The hosts are found by a scan of every live session, not through the
// registry under test.
func TestNoRetainedDispersalForHostedUser(t *testing.T) {
	cfg := testConfig(models.KindMF, 1)
	shrinkPendingDispersals(t, 12)
	c, err := New(testSplit(), cfg, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	numUsers := testSplit().NumUsers
	s := rng.New(7)
	var live []*session
	stashed := 0
	for step := 0; step < 2000; step++ {
		switch op := s.Intn(3); {
		case op == 0: // join a random range; refused when it overlaps
			lo := s.Intn(numUsers)
			hi := lo + 1 + s.Intn(min(4, numUsers-lo))
			if sess, err := c.register(lo, hi); err == nil {
				live = append(live, sess)
			}
		case op == 1 && len(live) > 0: // a random session leaves
			i := s.Intn(len(live))
			c.unregister(live[i])
			live = append(live[:i], live[i+1:]...)
		default: // open and publish a round whose every member gets a dispersal
			users := s.Perm(numUsers)[:1+s.Intn(numUsers)]
			c.openRound(step, users)
			dispersals := make([]fed.Dispersal, len(users))
			for k, u := range users {
				dispersals[k] = fed.Dispersal{ID: u, Preds: []comm.Prediction{{User: u, Item: 1, Score: 0.5}}}
			}
			c.publishRound(step, dispersals)
		}

		c.mu.Lock()
		stashed = max(stashed, len(c.pending))
		for u := range c.pending {
			for _, sess := range c.sessions {
				if sess.lo <= u && u < sess.hi {
					c.mu.Unlock()
					t.Fatalf("step %d: user %d's dispersal is retained while session [%d, %d) hosts it",
						step, u, sess.lo, sess.hi)
				}
			}
		}
		if len(c.sessions) != len(live) {
			c.mu.Unlock()
			t.Fatalf("step %d: %d sessions registered, the script holds %d", step, len(c.sessions), len(live))
		}
		for _, sess := range c.sessions {
			sess.events = sess.events[:0]
		}
		c.mu.Unlock()
	}
	if stashed == 0 {
		t.Fatal("the script never retained a dispersal; it exercises nothing")
	}
}

// BenchmarkOpenPublishRound times the coordinator's two per-round fan-outs,
// openRound and publishRound, at the cross-device shape: N one-user sessions,
// the whole population as the cohort, and a dispersal for every member. Each
// session's log is emptied per round, as its poll would trim it.
func BenchmarkOpenPublishRound(b *testing.B) {
	for _, n := range []int{1, 100, 2000} {
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			sp := &data.Split{Name: "fanout", NumUsers: n, NumItems: 64, Train: make([][]int, n), Test: make([][]int, n)}
			cfg := testConfig(models.KindMF, 1)
			c, err := New(sp, cfg, Options{})
			if err != nil {
				b.Fatal(err)
			}
			users := make([]int, n)
			dispersals := make([]fed.Dispersal, n)
			for u := range users {
				if _, err := c.register(u, u+1); err != nil {
					b.Fatal(err)
				}
				users[u] = u
				preds := make([]comm.Prediction, 20)
				for k := range preds {
					preds[k] = comm.Prediction{User: u, Item: k, Score: 0.5}
				}
				dispersals[u] = fed.Dispersal{ID: u, Preds: preds}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for round := 0; round < b.N; round++ {
				c.openRound(round, users)
				c.publishRound(round, dispersals)
				for _, s := range c.sessions {
					s.events = s.events[:0]
				}
			}
		})
	}
}
