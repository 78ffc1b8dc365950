"""Span tracing for a traced benchmark repetition.

Wrappers are installed around the public functions of each ``cogradar``
module at the name their caller looks them up by, so no source file changes:
``experiment`` imports the tracker and radar kernels by name, ``tracker.update``
reaches ``observe``/``observe_jacobian`` through the ``tracker`` namespace,
``radar.measure`` reaches ``observe`` through the ``radar`` namespace, and
``choose``/``learn`` are methods of the policy classes.

Spans are aggregated in memory per name (calls, total and self seconds). A
span's self time is its duration minus the time its child spans cover. A hook
whose target no longer exists is reported as absent and skipped, and one
whose result no longer has the fields read here is reported, not raised.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

RUN_EPISODE = "experiment.run_episode"

# (module, attribute at the call site, span name)
HOOKS = (
    ("cogradar.cli", "cli_main", "cli.main"),
    ("cogradar.cli", "_load_scenario", "config.load_scenario"),
    ("cogradar.cli", "generate_trajectory", "trajectory.generate"),
    ("cogradar.cli", "evaluate", "experiment.evaluate"),
    ("cogradar.cli", "train_qlearning", "experiment.train"),
    ("cogradar.cli", "calibrate_discretizer", "experiment.calibrate"),
    ("cogradar.cli", "overall_windowed_mse", "experiment.metrics"),
    ("cogradar.cli", "save_metrics_csv", "experiment.csv"),
    ("cogradar.cli", "save_histogram_csv", "experiment.csv"),
    ("cogradar.cli", "atomic_write_text", "experiment.csv"),
    ("cogradar.experiment", "run_episode", RUN_EPISODE),
    ("cogradar.experiment", "mean_windowed_mse", "experiment.metrics"),
    ("cogradar.experiment", "success_histogram", "experiment.metrics"),
    ("cogradar.experiment", "predict", "tracker.predict"),
    ("cogradar.experiment", "update", "tracker.update"),
    ("cogradar.experiment", "gate", "tracker.gate"),
    ("cogradar.experiment", "step_status", "tracker.step_status"),
    ("cogradar.experiment", "coast", "tracker.coast"),
    ("cogradar.experiment", "measure", "radar.measure"),
    ("cogradar.experiment", "observe_jacobian", "radar.observe_jacobian"),
    ("cogradar.tracker", "observe", "radar.observe"),
    ("cogradar.tracker", "observe_jacobian", "radar.observe_jacobian"),
    ("cogradar.radar", "observe", "radar.observe"),
    ("cogradar.policy", "FixedPolicy.choose", "policy.choose"),
    ("cogradar.policy", "BandwidthScalingPolicy.choose", "policy.choose"),
    ("cogradar.policy", "QLearningPolicy.choose", "policy.choose"),
    ("cogradar.policy", "Policy.learn", "policy.learn"),
    ("cogradar.policy", "QLearningPolicy.learn", "policy.learn"),
    ("cogradar.policy", "q_update", "policy.q_update"),
    ("cogradar.policy", "QTable.load", "policy.qtable.load"),
    ("cogradar.policy", "QTable.save", "policy.qtable.save"),
    ("cogradar.policy", "Discretizer.from_samples", "policy.discretizer.from_samples"),
    ("cogradar.policy", "Discretizer.load", "policy.discretizer.load"),
    ("cogradar.policy", "Discretizer.save", "policy.discretizer.save"),
)


class Tracer:
    """In-memory span aggregates for one process."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.episodes: list[tuple[float, int, bool]] = []  # (seconds, dwells, lost)
        self.gate_calls = 0
        self.gate_misses = 0
        self.updates_discarded = 0
        self.absent: list[str] = []
        self.unreadable: set[str] = set()  # spans whose result lacks the fields read
        self._stack: list[list[float]] = []
        self._update_pending = False

    def install(self) -> None:
        for module_name, attr, span in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if name not in getattr(owner, "__dict__", {}):
                self.absent.append(f"{module_name}.{attr}")
                continue
            original = inspect.getattr_static(owner, name)
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(self._wrap(span, original.__func__))
            elif callable(original):
                wrapped = self._wrap(span, original)
            else:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(owner, name, wrapped)

    def _wrap(self, span: str, fn):
        stats = self.spans.setdefault(span, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        on_return = {
            RUN_EPISODE: self._episode_done,
            "tracker.update": self._update_done,
            "tracker.gate": self._gate_done,
        }.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            if on_return is not None:
                try:
                    on_return(result, elapsed)
                except (AttributeError, TypeError):
                    self.unreadable.add(span)
            return result

        return traced

    def _episode_done(self, result, elapsed: float) -> None:
        self.episodes.append((elapsed, len(result.records), not result.successful))

    def _update_done(self, result, elapsed: float) -> None:
        self._update_pending = True

    def _gate_done(self, result, elapsed: float) -> None:
        self.gate_calls += 1
        if not result.correlated:
            self.gate_misses += 1
            if self._update_pending:
                self.updates_discarded += 1
        self._update_pending = False

    def report(self) -> dict:
        return {
            "spans": self.spans,
            "episodes": self.episodes,
            "gate_calls": self.gate_calls,
            "gate_misses": self.gate_misses,
            "updates_discarded": self.updates_discarded,
            "absent": self.absent
            + sorted(f"{span} (result unreadable)" for span in self.unreadable),
        }
