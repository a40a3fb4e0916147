package planner

import (
	"bytes"
	"strings"
	"testing"

	"clockroute/internal/core"
	"clockroute/internal/floorplan"
	"clockroute/internal/geom"
	"clockroute/internal/tech"
)

// testPlanner builds a planner over a coarse 25 mm SoC so tests stay fast.
func testPlanner(t *testing.T) (*Planner, *floorplan.Floorplan) {
	t.Helper()
	fp, err := floorplan.SoC25mm(0.5)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := New(fp, tech.CongPan70nm(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return pl, fp
}

func TestNetBetweenPicksModesFromPeriods(t *testing.T) {
	_, fp := testPlanner(t)
	// cpu (500 ps) -> dsp (300 ps): different domains.
	cross, err := NetBetween(fp, "c2d", Endpoint{"cpu", floorplan.SideEast}, Endpoint{"dsp", floorplan.SideWest}, 400)
	if err != nil {
		t.Fatal(err)
	}
	if cross.SrcPeriodPS != 500 || cross.DstPeriodPS != 300 {
		t.Errorf("cross periods = %g/%g", cross.SrcPeriodPS, cross.DstPeriodPS)
	}
	// sram0 and sram1 have no local clock: both take the default.
	same, err := NetBetween(fp, "m2m", Endpoint{"sram0", floorplan.SideEast}, Endpoint{"sram1", floorplan.SideWest}, 400)
	if err != nil {
		t.Fatal(err)
	}
	if same.SrcPeriodPS != 400 || same.DstPeriodPS != 400 {
		t.Errorf("same-domain periods = %g/%g", same.SrcPeriodPS, same.DstPeriodPS)
	}
	if _, err := NetBetween(fp, "bad", Endpoint{"nope", floorplan.SideEast}, Endpoint{"dsp", floorplan.SideWest}, 400); err == nil {
		t.Error("unknown block must fail")
	}
	if _, err := NetBetween(fp, "bad", Endpoint{"cpu", floorplan.SideEast}, Endpoint{"dsp", floorplan.SideWest}, 0); err == nil {
		t.Error("zero default period must fail")
	}
}

func TestRouteNetRBP(t *testing.T) {
	pl, fp := testPlanner(t)
	spec, err := NetBetween(fp, "m2m", Endpoint{"sram0", floorplan.SideEast}, Endpoint{"sram1", floorplan.SideWest}, 400)
	if err != nil {
		t.Fatal(err)
	}
	res := pl.RouteNet(spec)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Mode != ModeRBP {
		t.Errorf("mode = %v, want rbp", res.Mode)
	}
	if res.SrcCycles != res.Registers+1 || res.DstCycles != 0 {
		t.Errorf("cycles = %d/%d with %d regs", res.SrcCycles, res.DstCycles, res.Registers)
	}
	if res.LatencyPS != 400*float64(res.SrcCycles) {
		t.Errorf("latency %g != 400 * %d", res.LatencyPS, res.SrcCycles)
	}
	if res.WireMM <= 0 {
		t.Error("wirelength not reported")
	}
}

func TestRouteNetGALS(t *testing.T) {
	pl, fp := testPlanner(t)
	spec, err := NetBetween(fp, "c2d", Endpoint{"cpu", floorplan.SideEast}, Endpoint{"dsp", floorplan.SideWest}, 400)
	if err != nil {
		t.Fatal(err)
	}
	res := pl.RouteNet(spec)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Mode != ModeGALS {
		t.Errorf("mode = %v, want gals", res.Mode)
	}
	if res.Path.FIFOIndex() < 0 {
		t.Error("GALS net must carry an MCFIFO")
	}
	want := 500*float64(res.SrcCycles) + 300*float64(res.DstCycles)
	if res.LatencyPS != want {
		t.Errorf("latency %g != %g", res.LatencyPS, want)
	}
}

func TestRouteNetErrors(t *testing.T) {
	pl, _ := testPlanner(t)
	bad := pl.RouteNet(NetSpec{Name: "x", Src: geom.Pt(0, 0), Dst: geom.Pt(1, 0), SrcPeriodPS: 0, DstPeriodPS: 300})
	if bad.Err == nil {
		t.Error("zero period must fail")
	}
	off := pl.RouteNet(NetSpec{Name: "x", Src: geom.Pt(-1, 0), Dst: geom.Pt(1, 0), SrcPeriodPS: 300, DstPeriodPS: 300})
	if off.Err == nil {
		t.Error("off-die endpoint must fail")
	}
	// Endpoint inside a hard IP cannot host the port register.
	inIP := pl.RouteNet(NetSpec{Name: "x", Src: geom.Pt(10, 10), Dst: geom.Pt(30, 30), SrcPeriodPS: 300, DstPeriodPS: 300})
	if inIP.Err == nil {
		t.Error("endpoint inside an IP must fail")
	}
}

func TestPlanNets(t *testing.T) {
	pl, fp := testPlanner(t)
	var specs []NetSpec
	for _, nd := range []struct {
		name     string
		from, to Endpoint
	}{
		{"cpu-dsp", Endpoint{"cpu", floorplan.SideEast}, Endpoint{"dsp", floorplan.SideWest}},
		{"cpu-sram0", Endpoint{"cpu", floorplan.SideSouth}, Endpoint{"sram0", floorplan.SideNorth}},
		{"dsp-sram1", Endpoint{"dsp", floorplan.SideNorth}, Endpoint{"sram1", floorplan.SideSouth}},
		{"sram0-sram1", Endpoint{"sram0", floorplan.SideEast}, Endpoint{"sram1", floorplan.SideWest}},
	} {
		s, err := NetBetween(fp, nd.name, nd.from, nd.to, 400)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	plan, err := pl.PlanNets(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Nets) != 4 {
		t.Fatalf("planned %d nets", len(plan.Nets))
	}
	if len(plan.Failed()) != 0 {
		t.Fatalf("failures: %+v", plan.Failed())
	}
	if plan.TotalWireMM() <= 0 {
		t.Error("total wirelength missing")
	}

	var buf bytes.Buffer
	if err := plan.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	rep := buf.String()
	for _, want := range []string{"cpu-dsp", "cpu-sram0", "dsp-sram1", "LATENCY", "gals", "rbp"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	// Report is sorted by descending latency.
	lines := strings.Split(strings.TrimSpace(rep), "\n")
	if len(lines) != 5 {
		t.Fatalf("report has %d lines", len(lines))
	}
}

func TestPlanNetsValidation(t *testing.T) {
	pl, _ := testPlanner(t)
	if _, err := pl.PlanNets(nil); err == nil {
		t.Error("empty net list must fail")
	}
	dup := []NetSpec{
		{Name: "a", Src: geom.Pt(0, 0), Dst: geom.Pt(5, 5), SrcPeriodPS: 300, DstPeriodPS: 300},
		{Name: "a", Src: geom.Pt(1, 1), Dst: geom.Pt(6, 6), SrcPeriodPS: 300, DstPeriodPS: 300},
	}
	if _, err := pl.PlanNets(dup); err == nil {
		t.Error("duplicate names must fail")
	}
	anon := []NetSpec{{Src: geom.Pt(0, 0), Dst: geom.Pt(5, 5), SrcPeriodPS: 300, DstPeriodPS: 300}}
	if _, err := pl.PlanNets(anon); err == nil {
		t.Error("empty name must fail")
	}
}

func TestPlanReportsPartialFailure(t *testing.T) {
	pl, _ := testPlanner(t)
	specs := []NetSpec{
		{Name: "ok", Src: geom.Pt(0, 0), Dst: geom.Pt(10, 0), SrcPeriodPS: 900, DstPeriodPS: 900},
		// 12.5 mm at 60 ps: hopeless.
		{Name: "doomed", Src: geom.Pt(0, 2), Dst: geom.Pt(25, 2), SrcPeriodPS: 60, DstPeriodPS: 60},
	}
	plan, err := pl.PlanNets(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Failed()) != 1 || plan.Failed()[0].Spec.Name != "doomed" {
		t.Fatalf("failed = %+v", plan.Failed())
	}
	var buf bytes.Buffer
	if err := plan.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FAILED") {
		t.Error("report must flag the failed net")
	}
}

func TestWireWidthSelection(t *testing.T) {
	pl, _ := testPlanner(t)
	long := NetSpec{
		Name: "long", Src: geom.Pt(0, 0), Dst: geom.Pt(45, 45),
		SrcPeriodPS: 400, DstPeriodPS: 400,
	}

	nominal := pl.RouteNet(long)
	if nominal.Err != nil {
		t.Fatal(nominal.Err)
	}
	if nominal.WireWidth != 1 {
		t.Errorf("default width = %g, want 1", nominal.WireWidth)
	}

	long.WireWidths = []float64{0.5, 1, 2}
	swept := pl.RouteNet(long)
	if swept.Err != nil {
		t.Fatal(swept.Err)
	}
	// The half-width wire is faster per mm for this library (see tech
	// tests), so the sweep must not do worse than nominal and should pick a
	// non-nominal width when it wins.
	if swept.LatencyPS > nominal.LatencyPS {
		t.Errorf("width sweep worsened latency: %g > %g", swept.LatencyPS, nominal.LatencyPS)
	}
	if swept.LatencyPS < nominal.LatencyPS && swept.WireWidth == 1 {
		t.Error("sweep improved latency but reports nominal width")
	}

	// All widths infeasible still reports an error.
	doomed := NetSpec{
		Name: "doomed", Src: geom.Pt(0, 2), Dst: geom.Pt(25, 2),
		SrcPeriodPS: 60, DstPeriodPS: 60, WireWidths: []float64{0.5, 1, 2},
	}
	if res := pl.RouteNet(doomed); res.Err == nil {
		t.Error("all-width infeasible net must fail")
	}
}
