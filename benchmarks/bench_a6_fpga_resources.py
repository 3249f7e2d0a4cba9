"""A6 — FPGA resource estimation for the hardware policy (extension).

Shape target: the reference design (270 states x 5 actions, Q7.8) fits
the smallest common Zynq part, resources grow monotonically with word
length, and the clocked RTL model agrees exactly with the analytical
pipeline on per-step cycles.  Implementation:
:func:`repro.experiments.a6_fpga_resources`.
"""

from __future__ import annotations

from repro.experiments import a6_fpga_resources

from conftest import write_result


def test_a6_fpga_resources(benchmark):
    result = benchmark(a6_fpga_resources)
    luts = [est.luts for est in result.estimates.values()]
    metrics = {
        "max_luts": float(max(luts)),
        "accelerator_power_w": result.accelerator_power_w,
    }
    write_result("a6_fpga_resources", result.report, metrics=metrics,
                 config={})
    assert result.reference_fits()
    assert luts == sorted(luts)
    for _, rtl_cycles, analytical in result.rtl_checks:
        assert rtl_cycles == analytical
    # The accelerator must not burn what it saves: < 10 mW against the
    # hundreds-of-mW E1 savings.
    assert result.accelerator_power_w < 0.01
