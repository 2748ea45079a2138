package latencymodel

import (
	"strings"
	"testing"
)

func TestTableMatchesPaper(t *testing.T) {
	rows := make(map[string]Entry)
	for _, e := range Table() {
		rows[e.Name] = e
	}
	if len(rows) != 12 {
		t.Fatalf("table has %d rows, want 12", len(rows))
	}

	// Spot-check the quantitative claims of Table 1 at f=6, p=1 (the
	// paper's n=19 configuration).
	banyan := rows["Banyan"]
	if banyan.FinalSteps != 2 || banyan.FinalUnit != Delta {
		t.Errorf("Banyan finalization latency %d%s, want 2δ", banyan.FinalSteps, banyan.FinalUnit)
	}
	if got := banyan.FinalReq(6, 1); got != 18 { // 3f+p*-1 = n-p
		t.Errorf("Banyan finalization requirement at f=6,p=1 = %d, want 18", got)
	}
	if got := banyan.CreateReq(6, 1); got != 13 { // 2f+p*
		t.Errorf("Banyan creation requirement = %d, want 13", got)
	}
	if got := banyan.Replicas(6, 1); got != 19 {
		t.Errorf("Banyan replicas = %d, want 19", got)
	}
	if !banyan.Rotating || !banyan.Implemented {
		t.Error("Banyan must be rotating and implemented")
	}

	icc := rows["ICC / Simplex"]
	if icc.FinalSteps != 3 || icc.FinalReq(6, 1) != 13 || icc.Replicas(6, 1) != 19 {
		t.Errorf("ICC row wrong: %d steps, req %d, n %d",
			icc.FinalSteps, icc.FinalReq(6, 1), icc.Replicas(6, 1))
	}

	sbft := rows["SBFT"]
	if sbft.FinalSteps != 3 || sbft.Replicas(6, 1) != 21 { // 3f+2p+1
		t.Errorf("SBFT row wrong")
	}
	if sbft.Rotating {
		t.Error("SBFT is not a rotating-leader protocol in Table 1")
	}

	streamlet := rows["Streamlet"]
	if streamlet.FinalSteps != 6 || streamlet.FinalUnit != BigDelta {
		t.Error("Streamlet must be 6Δ")
	}

	// Banyan strictly beats every other rotating-leader row on
	// finalization steps (the paper's headline).
	for name, e := range rows {
		if name == "Banyan" || !e.Rotating || e.FinalUnit != Delta {
			continue
		}
		if e.FinalSteps <= banyan.FinalSteps {
			t.Errorf("%s at %d steps not beaten by Banyan's %d", name, e.FinalSteps, banyan.FinalSteps)
		}
	}
}

func TestRender(t *testing.T) {
	out := Render(6, 1)
	for _, want := range []string{"Banyan", "ICC / Simplex", "3f+p*-1=18", "2f+p*=13", "3f+2p*-1=19"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines < 13 {
		t.Errorf("rendered table has only %d lines", lines)
	}
}
