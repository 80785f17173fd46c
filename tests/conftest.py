import numpy as np
import pytest


def transformed_lengths(name, a, s=None, axes=None):
    """Points per transformed axis of an ``np.fft`` n-d call; other axes are a batch and do not count.

    ``s`` gives the lengths when set (for ``irfftn``, the real output's);
    otherwise they are the input's along ``axes`` (by default every axis, or
    the last ``len(s)``), and an ``irfftn`` without ``s`` outputs
    ``2 (n - 1)`` points along its last axis.
    """
    shape = np.shape(a)
    if axes is None:
        axes = range(len(shape) - (len(shape) if s is None else len(s)), len(shape))
    lengths = [shape[ax] for ax in axes] if s is None else list(s)
    if name == "irfftn" and s is None:
        lengths[-1] = 2 * (lengths[-1] - 1)
    return tuple(lengths)


@pytest.fixture
def fft_calls(monkeypatch):
    """Every ``np.fft.fftn``, ``ifftn`` and ``irfftn`` call of the test, in order, as ``(name, transformed lengths)``.

    The transforms still run.  ``monkeypatch.undo()`` stops the recording.
    """
    calls = []
    for name in ("fftn", "ifftn", "irfftn"):
        original = getattr(np.fft, name)

        def recording(a, s=None, axes=None, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, transformed_lengths(_name, a, s, axes)))
            return _original(a, s, axes, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, recording)
    return calls


@pytest.fixture
def cx_derivations(monkeypatch):
    """Calls of ``validate_config``, ``make_counterexample_profiles`` and ``sharp_lambda`` made through ``logmult.counterexample``.

    The wrapped functions still run.
    """
    from logmult import counterexample

    calls = {"validate_config": 0, "make_counterexample_profiles": 0, "sharp_lambda": 0}
    for name in calls:
        original = getattr(counterexample, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(counterexample, name, counting)
    return calls
