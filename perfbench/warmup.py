"""First calls of everything a workload uses, so lazy set-up is paid once.

Run as a script (``python3 perfbench/warmup.py <workload>``) it is the
fresh-interpreter set-up the benchmark times: import what the workload
calls, then make each first call. It imports nothing but bellcal and the
standard library, so its time is bellcal's alone.
"""

import sys


def warm_up(workload: str) -> None:
    if workload == "cli":
        import bellcal.cli  # noqa: F401  every subcommand starts with this import

        return
    import bellcal

    runs = [
        bellcal.ExperimentRun(1, 37892989, 549605351, 540.0, 2.6502),
        bellcal.ExperimentRun(7, 36888729, 590756887, 10000.0, 2.7609),
    ]
    report = bellcal.calibrate(runs)
    eta = report.fit.eta_used
    bellcal.solve_lambda_for_bell(report.fit, 2.5, eta)
    bellcal.sweep(report.fit, eta, [0.0, 0.1, 0.2])
    params = bellcal.SourceParams(eta, 0.0849)
    cfg = bellcal.SimConfig(n_pulses=1 << 12, seed=1)
    bellcal.simulate_pulses(params, cfg)
    bellcal.simulate_chsh(params, 1.0, cfg)


if __name__ == "__main__":
    warm_up(sys.argv[1])
