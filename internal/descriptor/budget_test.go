package descriptor

import (
	"errors"
	"strings"
	"testing"
)

func budgetXML(budget string) string {
	return `<component name="calc" type="periodic" cpuusage="0.3">
  <implementation bincode="rtai.demo.Calculation"/>
  <periodictask frequence="1000" runoncup="0" priority="1"/>
  ` + budget + `
</component>`
}

func TestParseBudget(t *testing.T) {
	c, err := Parse(budgetXML(`<budget dist="normal(0.3,0.05)" p="0.99"/>`))
	if err != nil {
		t.Fatal(err)
	}
	if c.Budget == nil || c.Budget.String() != "normal(0.3,0.05)" {
		t.Fatalf("budget = %v", c.Budget)
	}
	if c.BudgetP != 0.99 {
		t.Fatalf("p = %v, want 0.99", c.BudgetP)
	}
	if c.CPUUsage != 0.3 {
		t.Fatalf("cpuusage = %v", c.CPUUsage)
	}
}

func TestParseBudgetDefaultP(t *testing.T) {
	c, err := Parse(budgetXML(`<budget dist="lognormal(-1.2,0.4)"/>`))
	if err != nil {
		t.Fatal(err)
	}
	if c.BudgetP != 0.95 {
		t.Fatalf("absent p should default to 0.95, got %v", c.BudgetP)
	}
}

func TestParseBudgetErrors(t *testing.T) {
	cases := []struct {
		budget string
		want   string // substring of the validation problem
	}{
		{`<budget dist="weibull(1,2)"/>`, "unknown family"},
		{`<budget dist="normal(0.3)"/>`, "want normal(mu,sigma)"},
		{`<budget dist="normal(a,b)"/>`, "bad mu"},
		{`<budget dist="normal(0.3,-0.05)"/>`, "sigma must be >= 0"},
		{`<budget dist="empirical()"/>`, "at least one"},
		{`<budget dist="empirical(0.1:0)"/>`, "weight"},
		{`<budget dist="normal(0.3,0.05)" p="1.7"/>`, "probability in (0,1)"},
		{`<budget dist="normal(0.3,0.05)" p="0"/>`, "probability in (0,1)"},
		{`<budget dist="normal(0.3,0.05)" p="NaN"/>`, "probability in (0,1)"},
		{`<budget dist="normal(0.3,0.05)" p="x"/>`, "probability in (0,1)"},
		{`<budget/>`, "dist"},
	}
	for _, cse := range cases {
		_, err := Parse(budgetXML(cse.budget))
		if err == nil {
			t.Errorf("%s: want error", cse.budget)
			continue
		}
		var ve *ValidationError
		if !errors.As(err, &ve) {
			t.Errorf("%s: want *ValidationError, got %T: %v", cse.budget, err, err)
			continue
		}
		if !strings.Contains(err.Error(), cse.want) {
			t.Errorf("%s: error %q missing %q", cse.budget, err, cse.want)
		}
	}

	// A stochastic budget without the nominal cpuusage is rejected.
	src := `<component name="calc" type="periodic">
  <implementation bincode="b"/>
  <periodictask frequence="1000" runoncup="0" priority="1"/>
  <budget dist="normal(0.3,0.05)"/>
</component>`
	if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "requires a declared cpuusage") {
		t.Fatalf("budget without cpuusage: %v", err)
	}
}

func TestBudgetRenderRoundTrip(t *testing.T) {
	for _, budget := range []string{
		`<budget dist="normal(0.3,0.05)" p="0.99"/>`,
		`<budget dist="lognormal(-1.2,0.4)"/>`,
		`<budget dist="empirical(0.1:1,0.2:2,0.4:1)" p="0.97"/>`,
	} {
		c, err := Parse(budgetXML(budget))
		if err != nil {
			t.Fatal(err)
		}
		rendered := renderFmt(c)
		if !strings.Contains(rendered, "<budget dist=") {
			t.Fatalf("render lost the budget element:\n%s", rendered)
		}
		c2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("re-parse: %v\n%s", err, rendered)
		}
		if renderFmt(c2) != rendered {
			t.Fatalf("render not a fixed point:\n%s\nvs\n%s", rendered, renderFmt(c2))
		}
		if c2.Budget.String() != c.Budget.String() || c2.BudgetP != c.BudgetP {
			t.Fatalf("budget changed across round trip: %v/%v vs %v/%v",
				c.Budget, c.BudgetP, c2.Budget, c2.BudgetP)
		}
	}
}
