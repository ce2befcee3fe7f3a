import importlib

import mmseprox

MODULES = ("prior", "marginal", "denoiser", "moreau", "operators", "pnp", "regularizer")


def test_package_root_exports_every_public_name():
    for module in MODULES:
        mod = importlib.import_module(f"mmseprox.{module}")
        missing = sorted(set(mod.__all__) - set(mmseprox.__all__))
        assert not missing, f"mmseprox.__all__ lacks {missing} from mmseprox.{module}"
        for name in mod.__all__:
            assert getattr(mmseprox, name) is getattr(mod, name)
