//go:build flockmut

package cluster

import (
	"testing"

	"flock/internal/check"
)

// TestMutantsAreCaught is the mutation self-test on the shipped replica
// plane: each mutant is switched on at its real site and runs the directed
// scenario built to expose it, and the linearizability checker must reject
// the history every time. Without the mutant the same scenarios are
// TestCutBackupsAckNothing and TestLiveMigrationMovesDataAndRedirects, which
// must pass.
func TestMutantsAreCaught(t *testing.T) {
	if len(compiledMutants) != 3 {
		t.Fatalf("expected 3 compiled mutants, got %d", len(compiledMutants))
	}
	scenario := map[mutant]func(*testing.T) check.Result{
		mutStaleShardServe:       func(t *testing.T) check.Result { return moveUnderStaleRouter(t).res },
		mutAckBeforeReplicate:    func(t *testing.T) check.Result { return cutBackupsThenFailOver(t).res },
		mutAckBeforeBatchDurable: func(t *testing.T) check.Result { return cutBackupsThenFailOver(t).res },
	}
	for _, m := range compiledMutants {
		t.Run(m.String(), func(t *testing.T) {
			selectedMutant.Store(int32(m))
			defer selectedMutant.Store(0)
			res := scenario[m](t)
			t.Logf("%s", res)
			if res.Ok {
				t.Fatalf("mutant %s survived its scenario: the checker is blind to it", m)
			}
		})
	}
}
