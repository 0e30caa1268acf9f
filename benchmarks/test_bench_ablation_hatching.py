"""Ablation — the value of hatching (warm starting from the MotherNet).

Hatching is the design choice that makes the member phase cheap: a hatched
member starts from the MotherNet's learnt function, so the shared
convergence criterion stops it after a handful of epochs, whereas the same
architecture trained from scratch needs the full budget.  This bench
trains the same member architecture (i) hatched from a trained MotherNet and
(ii) from random initialisation, on the same bagged sample, and compares
starting error, epochs to convergence, and final error.
"""

from __future__ import annotations

from conftest import _dataset, training_config, write_report

from repro.arch import small_vgg_ensemble
from repro.core import construct_mothernet, hatch
from repro.data import bootstrap_sample
from repro.evaluation import format_table
from repro.nn import Model, Trainer, evaluate
from repro.nn.training import TrainingConfig


def _run_ablation():
    dataset = _dataset("cifar10")
    members = small_vgg_ensemble(
        num_classes=dataset.num_classes, input_shape=dataset.input_shape, width_scale=0.05
    )
    mothernet_spec = construct_mothernet(members)
    target_spec = members[1]  # V16

    config = training_config()
    mothernet = Model.from_spec(mothernet_spec, seed=0)
    mothernet_result = Trainer(config).fit(mothernet, dataset.x_train, dataset.y_train, seed=0)

    bag = bootstrap_sample(dataset.x_train, dataset.y_train, seed=1)
    member_config = TrainingConfig(
        max_epochs=config.max_epochs,
        batch_size=config.batch_size,
        learning_rate=config.learning_rate,
        momentum=config.momentum,
        convergence_patience=config.convergence_patience,
        convergence_tolerance=config.convergence_tolerance,
    )

    rows = []
    outcomes = {}
    for label, model in (
        ("hatched from MotherNet", hatch(mothernet, target_spec, seed=2)),
        ("random initialisation", Model.from_spec(target_spec, seed=3)),
    ):
        start_error = evaluate(model, dataset.x_test, dataset.y_test)["error_rate"]
        result = Trainer(member_config).fit(model, bag.x, bag.y, seed=4)
        final_error = evaluate(model, dataset.x_test, dataset.y_test)["error_rate"]
        rows.append([label, start_error, result.epochs_run, result.wall_clock_seconds, final_error])
        outcomes[label] = {
            "start_error": start_error,
            "epochs": result.epochs_run,
            "seconds": result.wall_clock_seconds,
            "final_error": final_error,
        }
    return mothernet_result, rows, outcomes


def test_bench_ablation_hatching(benchmark):
    mothernet_result, rows, outcomes = benchmark.pedantic(_run_ablation, rounds=1, iterations=1)

    report = [
        f"MotherNet trained for {mothernet_result.epochs_run} epochs "
        f"({mothernet_result.wall_clock_seconds:.1f}s) before hatching.",
        format_table(
            ["member initialisation", "error before training (%)", "epochs", "seconds", "final error (%)"],
            rows,
            title="Ablation: hatched warm start vs training the same member from scratch",
        ),
        "[paper] hatched networks converge significantly faster (~4-5x) than training from scratch",
    ]
    write_report("ablation_hatching", "\n".join(report))

    hatched = outcomes["hatched from MotherNet"]
    scratch = outcomes["random initialisation"]
    # The hatched member starts from the MotherNet's function, so its
    # pre-training error is far below the random-initialisation member's.
    assert hatched["start_error"] < scratch["start_error"] - 10.0
    # And it does not end up worse after the same (or less) training.
    assert hatched["final_error"] <= scratch["final_error"] + 10.0
    assert hatched["epochs"] <= scratch["epochs"]
