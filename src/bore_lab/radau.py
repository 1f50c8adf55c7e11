"""What is left of the Radau IIA integrator: its class name only.

Profiles are integrated with scipy's LSODA (traveling_wave._sweep).
bench/tracing.py still imports this module and wraps RadauStepper.step, so
the name stays; ROADMAP item 1's benchmark change deletes the module and
that wrap together.
"""


class RadauStepper:
    """No integrator: step raises."""

    def step(self):
        raise NotImplementedError("the Radau IIA integrator is gone; profiles use LSODA")
