package experiments

import (
	"strings"
	"testing"
)

// TestMatrixStory asserts the scheme-vs-attack cells that carry the
// paper's narrative. One matrix run covers 36 attack mounts, so this is
// the broadest integration test in the repository.
func TestMatrixStory(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 36 attack instances")
	}
	cells, err := RunMatrixOptions(MatrixOptions{HostInputs: 14, SATCap: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	get := func(scheme, attack string) MatrixCell {
		for _, c := range cells {
			if c.Scheme == scheme && c.Attack == attack {
				return c
			}
		}
		t.Fatalf("cell %s/%s missing", scheme, attack)
		return MatrixCell{}
	}
	// The SAT attack breaks traditional locking…
	if !get("RLL", "SAT").Broken {
		t.Error("SAT attack should break RLL")
	}
	// …but not the point-function schemes within the iteration cap.
	for _, s := range []string{"Anti-SAT", "SARLock", "CAS-Lock"} {
		if get(s, "SAT").Broken {
			t.Errorf("SAT attack should be capped on %s", s)
		}
		if get(s, "AppSAT").Broken {
			t.Errorf("AppSAT should only reach an approximate key on %s", s)
		}
	}
	// Removal defeats unmirrored flip-based schemes; M-CAS resists it.
	for _, s := range []string{"Anti-SAT", "SARLock", "CAS-Lock"} {
		if !get(s, "SPS-removal").Broken {
			t.Errorf("SPS removal should break %s", s)
		}
	}
	if get("M-CAS", "SPS-removal").Broken {
		t.Error("SPS removal alone should NOT break M-CAS")
	}
	// Bypass corrects one-point functions but blows up on CAS-Lock.
	if !get("Anti-SAT", "bypass").Broken || !get("SARLock", "bypass").Broken {
		t.Error("bypass should break the one-point-function schemes")
	}
	if get("CAS-Lock", "bypass").Broken {
		t.Error("bypass should exceed its budget on CAS-Lock")
	}
	// CAS-Unlock fails on CAS-Lock (mixed polarities)…
	if get("CAS-Lock", "CAS-Unlock").Broken {
		t.Error("CAS-Unlock should fail on CAS-Lock")
	}
	// …but the nested M-CAS construction accepts any mirrored key, so
	// uniform keys (and the plain SAT attack) break it — the emergent
	// observation EXPERIMENTS.md documents.
	if !get("M-CAS", "CAS-Unlock").Broken {
		t.Error("mirrored uniform keys should unlock nested M-CAS")
	}
	// The paper's attack breaks CAS-Lock and M-CAS exactly.
	if !get("CAS-Lock", "DIP-learning").Broken {
		t.Error("DIP learning should break CAS-Lock")
	}
	if !get("M-CAS", "DIP-learning").Broken {
		t.Error("DIP learning should break M-CAS")
	}
}

func TestPrintMatrix(t *testing.T) {
	var sb strings.Builder
	PrintMatrix(&sb, []MatrixCell{
		{Scheme: "CAS-Lock", Attack: "DIP-learning", Broken: true, Detail: "exact key"},
	})
	out := sb.String()
	if !strings.Contains(out, "BROKEN") || !strings.Contains(out, "exact key") {
		t.Errorf("matrix output malformed:\n%s", out)
	}
}
