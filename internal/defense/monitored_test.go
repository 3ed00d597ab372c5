package defense

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"duo/internal/retrieval"
	"duo/internal/tensor"
)

func monitoredFixture(t *testing.T) (*MonitoredService, *fixture) {
	t.Helper()
	f := getFixture(t)
	eng := retrieval.NewEngine(f.model, f.corpus.Train)
	det := NewStatefulDetector(10, 5, 5)
	return NewMonitoredService(eng, det), f
}

func TestMonitoredServesHonestTraffic(t *testing.T) {
	svc, f := monitoredFixture(t)
	for i, v := range f.corpus.Train {
		rs, err := svc.RetrieveAs("honest", v, 5)
		if err != nil {
			t.Fatalf("honest query %d refused: %v", i, err)
		}
		if len(rs) != 5 {
			t.Fatalf("got %d results", len(rs))
		}
	}
	served, refused := svc.Stats()
	if served != len(f.corpus.Train) || refused != 0 {
		t.Errorf("stats = %d served, %d refused", served, refused)
	}
}

func TestMonitoredBlocksQueryAttack(t *testing.T) {
	svc, f := monitoredFixture(t)
	base := f.corpus.Test[0]
	rng := rand.New(rand.NewSource(61))
	var blockedErr error
	for i := 0; i < 15; i++ {
		q := base.Clone()
		q.Data.AddInPlace(tensor.RandNormal(rng, 0, 0.5, base.Data.Shape()...))
		q.Clip()
		if _, err := svc.RetrieveAs("attacker", q, 5); err != nil {
			blockedErr = err
			break
		}
	}
	if blockedErr == nil {
		t.Fatal("query attack never blocked")
	}
	if !errors.Is(blockedErr, ErrAccountBlocked) {
		t.Errorf("error %v does not wrap ErrAccountBlocked", blockedErr)
	}
	if got := svc.BlockedAccounts(); len(got) != 1 || got[0] != "attacker" {
		t.Errorf("BlockedAccounts = %v", got)
	}
	// Once blocked, always refused.
	if _, err := svc.RetrieveAs("attacker", base, 5); err == nil {
		t.Error("blocked account served again")
	}
	// Five more accounts blocked out of name order are listed sorted.
	for _, account := range []string{"raider-4", "raider-1", "raider-3", "raider-0", "raider-2"} {
		for i := 0; i < 15; i++ {
			q := base.Clone()
			q.Data.AddInPlace(tensor.RandNormal(rng, 0, 0.5, base.Data.Shape()...))
			q.Clip()
			if _, err := svc.RetrieveAs(account, q, 5); err != nil {
				break
			}
		}
	}
	want := "attacker raider-0 raider-1 raider-2 raider-3 raider-4"
	for i := 0; i < 20; i++ {
		if got := strings.Join(svc.BlockedAccounts(), " "); got != want {
			t.Fatalf("BlockedAccounts = %q, want sorted %q", got, want)
		}
	}
}

func TestSingleAccountGoesSilentWhenBlocked(t *testing.T) {
	svc, f := monitoredFixture(t)
	naive := &SingleAccount{Service: svc, Account: "naive"}
	base := f.corpus.Test[1]
	rng := rand.New(rand.NewSource(62))
	empty := 0
	for i := 0; i < 15; i++ {
		q := base.Clone()
		q.Data.AddInPlace(tensor.RandNormal(rng, 0, 0.5, base.Data.Shape()...))
		q.Clip()
		if len(naive.Retrieve(q, 5)) == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Error("naive single-account attacker was never cut off")
	}
}

func TestAccountRotatorEvadesDetection(t *testing.T) {
	svc, f := monitoredFixture(t)
	rot := &AccountRotator{Service: svc, QueriesPerAccount: 4} // below MinQueries=5
	base := f.corpus.Test[2]
	rng := rand.New(rand.NewSource(63))
	for i := 0; i < 40; i++ {
		q := base.Clone()
		q.Data.AddInPlace(tensor.RandNormal(rng, 0, 0.5, base.Data.Shape()...))
		q.Clip()
		if len(rot.Retrieve(q, 5)) == 0 {
			t.Fatalf("rotated query %d refused", i)
		}
	}
	if got := svc.BlockedAccounts(); len(got) != 0 {
		t.Errorf("rotator accounts blocked: %v", got)
	}
	if rot.AccountsUsed() < 40/4 {
		t.Errorf("only %d accounts used for 40 queries", rot.AccountsUsed())
	}
}

func TestAccountRotatorRecoversFromBlock(t *testing.T) {
	svc, f := monitoredFixture(t)
	// Rotate too slowly (window fills) so blocks happen, and verify the
	// rotator still gets answers by burning accounts.
	rot := &AccountRotator{Service: svc, QueriesPerAccount: 20}
	base := f.corpus.Test[0]
	rng := rand.New(rand.NewSource(64))
	failures := 0
	for i := 0; i < 30; i++ {
		q := base.Clone()
		q.Data.AddInPlace(tensor.RandNormal(rng, 0, 0.5, base.Data.Shape()...))
		q.Clip()
		if len(rot.Retrieve(q, 5)) == 0 {
			failures++
		}
	}
	if failures > 0 {
		t.Errorf("%d queries went unanswered despite rotation-on-block", failures)
	}
	if _, refused := svc.Stats(); refused == 0 {
		t.Error("expected at least one refusal before rotation kicked in")
	}
}
