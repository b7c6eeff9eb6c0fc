"""Wire ``tools/check_contrast_adoption.py`` into the suite.

Loss code under ``src/repro/core/`` and ``src/repro/baselines/`` must
compose contrastive objectives through ``repro.contrast`` instead of
hand-rolling exp/logsumexp partition functions over similarity matrices.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_contrast_adoption", ROOT / "tools" / "check_contrast_adoption.py"
)
check_contrast_adoption = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_contrast_adoption)


def test_loss_code_has_no_inline_similarity_losses():
    findings = []
    for rel in check_contrast_adoption.CHECKED_DIRS:
        for path in sorted((ROOT / rel).rglob("*.py")):
            findings.extend(check_contrast_adoption.check_file(path))
    assert not findings, "inline similarity losses:\n" + "\n".join(findings)


def test_contrast_package_itself_is_exempt():
    """The objectives module legitimately builds partition functions; it
    must not be in the checked set."""
    assert "src/repro/contrast" not in check_contrast_adoption.CHECKED_DIRS
    assert all(
        not d.startswith("src/repro/contrast")
        for d in check_contrast_adoption.CHECKED_DIRS
    )


def test_detects_logsumexp(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from repro.autograd import ops\n\n"
        "den = ops.logsumexp(sims, axis=1)\n"
    )
    findings = check_contrast_adoption.check_file(module)
    assert len(findings) == 1
    assert "logsumexp" in findings[0]


def test_detects_exp_over_matmul(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from repro.autograd import ops\n\n"
        "den = ops.exp(ops.div(ops.matmul(a, ops.transpose(b)), t))\n"
    )
    findings = check_contrast_adoption.check_file(module)
    assert len(findings) == 1
    assert "matmul" in findings[0]


def test_detects_log_over_gathered_similarity(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from repro.autograd import ops\n\n"
        "ll = ops.log(ops.normalize_cosine_sim_gather(z1, z2, cols))\n"
    )
    findings = check_contrast_adoption.check_file(module)
    assert len(findings) == 1
    assert "normalize_cosine_sim_gather" in findings[0]


def test_detects_exp_over_cosine_helper(tmp_path):
    """The dense cosine similarity is the functional helper's op chain;
    exponentiating it inline is still a hand-rolled loss."""
    module = tmp_path / "mod.py"
    module.write_text(
        "from repro.autograd import functional, ops\n\n"
        "den = ops.exp(functional.cosine_similarity_matrix(z1, z2))\n"
    )
    findings = check_contrast_adoption.check_file(module)
    assert len(findings) == 1
    assert "cosine_similarity_matrix" in findings[0]


def test_vgae_reparameterisation_passes(tmp_path):
    """exp over a non-similarity expression is not a loss."""
    module = tmp_path / "mod.py"
    module.write_text(
        "from repro.autograd import ops\n\n"
        "z = ops.add(mu, ops.mul(ops.exp(ops.mul(logvar, 0.5)), noise))\n"
    )
    assert check_contrast_adoption.check_file(module) == []


def test_numpy_exp_over_plain_array_passes(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import numpy as np\n\nscores = beta * np.exp(exponent)\n"
    )
    assert check_contrast_adoption.check_file(module) == []


def test_matmul_without_exp_log_passes(tmp_path):
    """Similarity computation alone is fine; only exponentiating it is a
    loss construction."""
    module = tmp_path / "mod.py"
    module.write_text(
        "from repro.autograd import ops\n\n"
        "sims = ops.matmul(a, ops.transpose(b))\n"
    )
    assert check_contrast_adoption.check_file(module) == []
