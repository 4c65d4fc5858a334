"""Run the full three-step study on the congested ten-node fixture.

Step 1 dispatches the electricity system for a week without hydrogen and
derives tariffs from the price series.  Step 2 sites electrolyzers per
scenario: tariffs may be uniform or nodal (spatial signal) and flat or
real-time (temporal signal).  Step 3 feeds the electrolyzer loads back,
scales renewables by the added energy, and re-runs the uniform market
with redispatch to compare congestion-management costs.

Siting against nodal prices pulls electrolyzers into the export-congested
cheap region and relieves the corridor; siting against the uniform price
ignores the network and makes congestion worse.
"""

from h2grid import (FLAT, NODAL, REAL_TIME, Scenario, UNIFORM,
                    congested_fixture, run_full_study)


def main():
    case = congested_fixture(seed=20240, hours=168)
    scenarios = [Scenario(spatial=s, temporal=t, carrier="LH2")
                 for s in (UNIFORM, NODAL) for t in (FLAT, REAL_TIME)]
    report = run_full_study(case, scenarios)

    print(f"baseline: {report.baseline_demand_mwh:,.0f} MWh, "
          f"mean price {report.baseline_mean_price:.2f} EUR/MWh, "
          f"congestion {report.baseline_congestion_eur:,.0f} EUR")
    print(f"{'scenario':26s} {'congestion EUR':>15s} {'vs base':>8s} "
          f"{'EUR/kg':>7s}")
    base = report.baseline_congestion_eur
    for r in report.results:
        delta = 100.0 * (r.congestion_cost_eur - base) / base
        print(f"{r.scenario.name:26s} {r.congestion_cost_eur:15,.0f} "
              f"{delta:+7.1f}% {r.breakdown['total']:7.2f}")

    print("\nuniform-minus-nodal mean price by node (positive favors "
          "nodal siting):")
    for node, spread in sorted(report.nodal_price_spread.items()):
        print(f"  node {node}: {spread:+7.2f} EUR/MWh")


if __name__ == "__main__":
    main()
