"""Strategic classification on a finite feature grid.

A Stackelberg game: a classifier is published, contestants best-respond by
paying manipulation costs to move, and the publisher is scored on the
accuracy of the induced reports.  The package provides the game engine,
deterministic and randomized solvers, an equilibrium stability check, a
noisy-feature variant, Gaussian closed forms with a discretization bridge,
scenario files, and built-in reproduction targets (``stratclass reproduce``).

Each module's ``__all__`` is the one list of its public names; the package
re-exports all of them, first mention first.
"""

from .model import *  # noqa: F403
from .game import *  # noqa: F403
from .solvers import *  # noqa: F403
from .stability import *  # noqa: F403
from .noise import *  # noqa: F403
from .analytic import *  # noqa: F403
from .scenario import *  # noqa: F403
from .reproduce import *  # noqa: F403
from . import analytic, game, model, noise, reproduce, scenario, solvers, stability

__version__ = "0.1.0"

__all__ = list(
    dict.fromkeys(
        name
        for module in (model, game, solvers, stability, noise, analytic, scenario, reproduce)
        for name in module.__all__
    )
)
