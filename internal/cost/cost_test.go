package cost

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMoneyUnits(t *testing.T) {
	if Dollar != 100*Cent || Cent != 1000*Millicent || Millicent != 1000*Microcent {
		t.Fatal("unit ladder broken")
	}
	if Dollars(1) != Dollar {
		t.Errorf("Dollars(1) = %d", Dollars(1))
	}
	if Millicents(62.5) != 62500*Microcent {
		t.Errorf("Millicents(62.5) = %d", Millicents(62.5))
	}
	if got := Dollars(0.01).ToDollars(); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("ToDollars = %g", got)
	}
	if got := Millicents(0.92).ToMillicents(); math.Abs(got-0.92) > 1e-9 {
		t.Errorf("ToMillicents = %g", got)
	}
}

func TestMoneyString(t *testing.T) {
	if s := Dollars(2).String(); s != "$2.00" {
		t.Errorf("String = %q", s)
	}
	if s := Dollars(1.2345).String(); s != "$1.2345" {
		t.Errorf("String = %q", s)
	}
}

func TestMulFloat(t *testing.T) {
	m := Millicents(2)
	if got := m.MulFloat(3.5); got != Millicents(7) {
		t.Errorf("MulFloat = %v", got)
	}
}

func TestQuickMoneyRoundTrip(t *testing.T) {
	// Dollars → Money → ToDollars round-trips to microcent precision.
	check := func(cents int32) bool {
		d := float64(cents) / 100
		return math.Abs(Dollars(d).ToDollars()-d) < 1e-8
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestCatalogTable3(t *testing.T) {
	// The paper's headline claim: per ECU-second, c1.medium is 4–5 times
	// cheaper than m1.medium.
	ratioLow := float64(M1Medium.PerECULow) / float64(C1Medium.PerECULow)
	ratioHigh := float64(M1Medium.PerECUHigh) / float64(C1Medium.PerECUHigh)
	if ratioLow < 4 || ratioLow > 5.5 {
		t.Errorf("low-end price ratio = %.2f, want 4–5", ratioLow)
	}
	if ratioHigh < 4 || ratioHigh > 5.5 {
		t.Errorf("high-end price ratio = %.2f, want 4–5", ratioHigh)
	}
	if C1Medium.ECU != 2.5*M1Medium.ECU {
		t.Errorf("c1.medium must have 2.5x the ECU of m1.medium")
	}
}

func TestPerECUMid(t *testing.T) {
	mid := C1Medium.PerECUMid()
	if mid <= C1Medium.PerECULow || mid >= C1Medium.PerECUHigh {
		t.Errorf("midpoint %v outside range", mid)
	}
}

func TestTransferPricing(t *testing.T) {
	// Paper: 62.5 millicents per 64 MB block across zones.
	if got := InterZonePerBlock; got != Millicents(62.5) {
		t.Errorf("InterZonePerBlock = %v, want 62.5 mc", got.ToMillicents())
	}
	p := DefaultTransferPricing()
	if p.PerGB("us-east-1a", "us-east-1a") != 0 {
		t.Error("intra-zone transfer must be free")
	}
	if p.PerGB("us-east-1a", "us-east-1b") != InterZonePerGB {
		t.Error("inter-zone transfer must use the Amazon price")
	}
	if got := p.PerGB("a", "b").MulFloat(BlockMB / 1024); got != Millicents(62.5) {
		t.Errorf("one block across zones = %v", got.ToMillicents())
	}
}

func TestCPUCost(t *testing.T) {
	// 100 ECU-seconds at 1 mc each = 100 mc.
	if got := CPUCost(Millicents(1), 100); got != Millicents(100) {
		t.Errorf("CPUCost = %v", got)
	}
}

func TestLedger(t *testing.T) {
	l := NewLedger()
	l.ChargeTenant(CatCPU, "j1", "", Millicents(10))
	l.ChargeTenant(CatCPU, "j2", "", Millicents(5))
	l.ChargeTenant(CatTransfer, "j1", "", Millicents(3))
	l.ChargeTenant(CatPlacement, "", "", Millicents(2))
	if l.Total() != Millicents(20) {
		t.Errorf("Total = %v", l.Total())
	}
	if l.Category(CatCPU) != Millicents(15) {
		t.Errorf("Category(cpu) = %v", l.Category(CatCPU))
	}
	if l.Job("j1") != Millicents(13) {
		t.Errorf("Job(j1) = %v", l.Job("j1"))
	}
	if l.Job("j2") != Millicents(5) {
		t.Errorf("Job(j2) = %v", l.Job("j2"))
	}
	if l.String() == "" {
		t.Error("empty String")
	}
}

func TestLedgerTenantDimension(t *testing.T) {
	l := NewLedger()
	l.ChargeTenant(CatCPU, "j1", "alice", Millicents(10))
	l.ChargeTenant(CatCPU, "j2", "bob", Millicents(5))
	l.ChargeTenant(CatTransfer, "j1", "alice", Millicents(3))
	l.ChargeTenant(CatPlacement, "", "", Millicents(2)) // unowned → _system
	l.ChargeTenant(CatFault, "", "", Millicents(1))

	if got := l.TenantCategory("alice", CatCPU); got != Millicents(10) {
		t.Errorf("alice cpu = %v", got)
	}
	if got := l.TenantTotal("alice"); got != Millicents(13) {
		t.Errorf("alice total = %v", got)
	}
	if got := l.TenantTotal(UnattributedTenant); got != Millicents(3) {
		t.Errorf("_system total = %v", got)
	}
	if got := l.Unattributed(); got != Millicents(3) {
		t.Errorf("unattributed = %v", got)
	}
	want := []string{UnattributedTenant, "alice", "bob"}
	got := l.Tenants()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("Tenants = %v, want %v", got, want)
	}
	bd := l.TenantBreakdown("alice")
	if bd[CatCPU] != Millicents(10) || bd[CatTransfer] != Millicents(3) {
		t.Errorf("breakdown = %v", bd)
	}
	if err := l.Reconcile(); err != nil {
		t.Errorf("Reconcile: %v", err)
	}
}

func TestLedgerReconcileCatchesDrift(t *testing.T) {
	l := NewLedger()
	l.ChargeTenant(CatCPU, "j", "alice", Millicents(10))
	l.byCat[CatCPU.Index()] += Microcent // cook the books by one microcent
	if err := l.Reconcile(); err == nil {
		t.Error("Reconcile missed a one-microcent drift")
	}
	l.byCat[CatCPU.Index()] -= Microcent
	if err := l.Reconcile(); err != nil {
		t.Errorf("Reconcile after repair: %v", err)
	}
	l.total += Microcent
	if err := l.Reconcile(); err == nil {
		t.Error("Reconcile missed a total drift")
	}
	l.total -= Microcent
	l.byJob[0] += Microcent
	if err := l.Reconcile(); err == nil {
		t.Error("Reconcile missed a job-line drift")
	}
	l.byJob[0] -= Microcent
	l.tenants[0].by[CatCPU.Index()] += Microcent
	if err := l.Reconcile(); err == nil {
		t.Error("Reconcile missed a tenant-line drift")
	}
}

func TestCategoryIndex(t *testing.T) {
	for i, c := range Categories {
		if c.Index() != i {
			t.Errorf("%s.Index() = %d, want %d", c, c.Index(), i)
		}
	}
	if Category("mystery").Index() != -1 {
		t.Error("a category outside Categories must index -1")
	}
}

// TestLedgerPanicsOnUnknownCategory holds the ledger to its five
// categories: booking any other panics, by name or by Ref, and leaves the
// books as they were; reading one returns 0.
func TestLedgerPanicsOnUnknownCategory(t *testing.T) {
	l := NewLedger()
	l.ChargeTenant(CatCPU, "j", "alice", Millicents(1))
	for name, book := range map[string]func(){
		"ChargeTenant": func() { l.ChargeTenant("mystery", "j", "alice", Millicents(2)) },
		"ChargeRef":    func() { l.ChargeRef("", l.Resolve("j", "alice"), Millicents(2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s booked a category outside the five without panicking", name)
				}
			}()
			book()
		}()
	}
	if got := l.Total(); got != Millicents(1) {
		t.Errorf("Total = %v after the refused bookings, want 1 mc", got)
	}
	for _, c := range []Category{"mystery", ""} {
		if got := l.Category(c); got != 0 {
			t.Errorf("Category(%q) = %v, want 0", c, got)
		}
		if got := l.TenantCategory("alice", c); got != 0 {
			t.Errorf("TenantCategory(alice, %q) = %v, want 0", c, got)
		}
	}
}

func TestLedgerPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative charge")
		}
	}()
	NewLedger().ChargeTenant(CatCPU, "j", "", -1)
}
