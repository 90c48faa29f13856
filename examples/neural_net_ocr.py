"""Neural-network training on OCR-style data (paper Figure 12(a)).

Traces validation error against simulated time for conventional
data-parallel training and for PIC, reproducing the Figure 12(a) story:
PIC reaches the baseline's final error in a fraction of the time.

    python examples/neural_net_ocr.py
"""

from repro.apps.neuralnet import MLP, NeuralNetProgram, ocr_dataset
from repro.cluster.presets import small_cluster
from repro.pic.runner import PICRunner, run_ic_baseline
from repro.util.formatting import render_table


def main() -> None:
    records, X, y = ocr_dataset(21_000, seed=7)
    train, Xv, yv = records[:20_000], X[20_000:], y[20_000:]
    program = NeuralNetProgram(MLP(64, 32, 10), validation=(Xv, yv))
    model0 = program.initial_model(train, seed=9)

    # Every iteration's record holds its simulated end time and the model
    # it ended with: the (time, error) points are read off the runs.
    def curve(traces) -> list[tuple[float, float]]:
        return [(t.end, program.validation_error(t.model, Xv, yv)) for t in traces]

    ic = run_ic_baseline(small_cluster(), program, train,
                         initial_model={k: v.copy() for k, v in model0.items()})
    ic_curve = curve(ic.traces)
    pic = PICRunner(small_cluster(), program, num_partitions=18, seed=3).run(
        train, initial_model={k: v.copy() for k, v in model0.items()}
    )
    pic_curve = curve(pic.best_effort.stats) + curve(pic.topoff.traces)

    rows = []
    for label, curve in (("IC", ic_curve), ("PIC", pic_curve)):
        for t, err in curve:
            rows.append([label, f"{t:.3f}", f"{err:.4f}"])
    print(render_table(["run", "sim time (s)", "validation error"], rows,
                       title="Error vs time (Figure 12(a) style)"))
    print(f"\nIC  : {ic.iterations} epochs, final error "
          f"{program.validation_error(ic.model, Xv, yv):.4f}")
    print(f"PIC : {pic.be_iterations} best-effort rounds + "
          f"{pic.topoff_iterations} top-off epochs, final error "
          f"{program.validation_error(pic.model, Xv, yv):.4f}")
    print(f"speedup: {ic.total_time / pic.total_time:.2f}x")


if __name__ == "__main__":
    main()
