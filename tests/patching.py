"""Rebinding a sphertwist function in every namespace that holds it.

Modules import each other with ``from .resolutions import
minimal_resolution``, which copies the function object into the
importing namespace, so patching the defining module alone misses the
callers elsewhere.
"""

import sys


def patch_everywhere(monkeypatch, layer, name, replacement):
    """Replace ``layer.name`` in every loaded sphertwist module holding it."""
    original = getattr(layer, name)
    holders = [
        mod for key, mod in list(sys.modules.items())
        if key.split(".")[0] == "sphertwist" and getattr(mod, name, None) is original
    ]
    assert layer in holders
    for mod in holders:
        monkeypatch.setattr(mod, name, replacement)


def count_calls(monkeypatch, layer, name):
    """Wrap ``layer.name`` everywhere; the list returned gets the
    positional arguments of each call."""
    calls = []
    original = getattr(layer, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    patch_everywhere(monkeypatch, layer, name, counting)
    return calls
