"""The package namespace: every public name of the layer modules, once."""

import hankellab


def test_public_names_resolve_once():
    names = hankellab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(hankellab, name) is not None, name
    assert {"TruncationSpec", "Experiment", "EXPERIMENTS",
            "top_block_index", "__version__"} <= set(names)
