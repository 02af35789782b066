"""Reference implementations that the tests compare the library against."""

from math import inf

from gapcraft.errors import TimeRegression


class TokenBucketRateModel:
    """Token bucket restated as a rate variable a_tilde with T = W/r.

    Defined for a constant token rate r; the decision sequence matches
    TokenBucket((W,), constant r) exactly, with b = a_tilde * T.  It has one
    priority and ignores the class and priority of an offer.
    """

    num_priorities = 1

    def __init__(self, rate: float, watermark: float):
        if rate <= 0.0:
            raise ValueError("rate must be positive")
        self.r = float(rate)
        self.W = float(watermark)
        self.T = self.W / self.r
        self.a_tilde = 0.0
        self.last_time = 0.0

    def clone(self) -> "TokenBucketRateModel":
        other = TokenBucketRateModel.__new__(TokenBucketRateModel)
        other.r, other.W, other.T = self.r, self.W, self.T
        other.a_tilde = self.a_tilde
        other.last_time = self.last_time
        return other

    def admit(self, t: float, class_id: int = 0, priority: int = 0) -> bool:
        dt = t - self.last_time
        if not 0.0 <= dt < inf:
            raise TimeRegression(
                f"offer at {t} is not finite or precedes last event {self.last_time}")
        T = self.T
        decayed = (T * self.a_tilde - dt * self.r) / T
        if decayed < 0.0:
            decayed = 0.0
        provisional = 1.0 / T + decayed
        admitted = provisional <= self.r
        self.a_tilde = provisional if admitted else decayed
        self.last_time = t
        return admitted
